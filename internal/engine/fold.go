package engine

import (
	"math"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/sim"
)

// span summarizes a stretch of eager execution — one host dispatch
// thread feeding one FIFO stream — by its effect on the host clock c
// and the stream frontier f (the instant the stream drains):
//
//	c' = c + cpu
//	f' = max(f + stream, c + launch)
//
// The executor's launch model (§IV/§V: the host pays dispatch and the
// launch call; a kernel starts at max(launch arrival, stream free))
// uses only additions and maxima, so every node, and every sequence of
// nodes, has an exact span. launch is noLaunch for a stretch that
// launches no kernel. A stretch is launch-bound when c + launch wins
// the max: its stream work waits on the host, not on earlier kernels.
type span struct {
	cpu, stream, launch sim.Time
}

// noLaunch stands for −∞ in a span's launch term. It is far enough
// from the int64 limits that adding any simulated duration to it
// cannot overflow, and far enough below zero that it never wins a max.
const noLaunch = sim.Time(math.MinInt64 / 4)

// idle is the identity span: no host time, no stream work.
var idle = span{launch: noLaunch}

// then composes a followed by b.
func (a span) then(b span) span {
	return span{a.cpu + b.cpu, a.stream + b.stream, max(a.launch+b.stream, a.cpu+b.launch)}
}

// folder computes spans from the same hw.Platform calls the executor,
// cuda.Runtime and sim.Timeline make, with their clamps.
type folder struct {
	p          *hw.Platform
	launchCPU  sim.Time // host time of one launch call
	propagated sim.Time // launch call start to earliest kernel start
}

func newFolder(p *hw.Platform) folder {
	return folder{p: p, launchCPU: max(p.LaunchCPUTime(), 0), propagated: sim.FromNs(p.LaunchOverheadNs)}
}

// launch is one cudaLaunchKernel or cudaMemcpyAsync of d on the
// stream. A negative duration occupies the stream for zero time, as in
// sim.Timeline.Acquire.
func (fo folder) launch(d sim.Time) span {
	d = max(d, 0)
	return span{fo.launchCPU, d, fo.propagated + d}
}

// node is execNode's span: the node's host dispatch, its children in
// order, then its kernels.
func (fo folder) node(n *ops.Node) span {
	s := span{cpu: max(fo.p.CPUTime(n.CPUNs), 0), launch: noLaunch}
	for _, c := range n.Children {
		s = s.then(fo.node(c))
	}
	for _, k := range n.Kernels {
		s = s.then(fo.launch(fo.p.GPU.KernelDuration(k.Cost)))
	}
	return s
}

// nodes folds a run of top-level operators.
func (fo folder) nodes(s span, ns []*ops.Node) span {
	for _, n := range ns {
		s = s.then(fo.node(n))
	}
	return s
}

// graph folds g's operators. g.Repeat lets it fold the repeated block
// once and compose its span Count times; a graph without a repeat
// record folds node by node.
func (fo folder) graph(g *ops.Graph) span {
	r, ns := g.Repeat, g.Nodes
	if r.Count == 0 {
		return fo.nodes(idle, ns)
	}
	s := fo.nodes(idle, ns[:r.Start])
	block := fo.nodes(idle, ns[r.Start:r.Start+r.Len])
	for i := 0; i < r.Count; i++ {
		s = s.then(block)
	}
	return fo.nodes(s, ns[r.Start+r.Len*r.Count:])
}

// copySpan is a host↔device copy of bytes as cuda.Runtime.Memcpy issues
// it: nothing on unified physical memory or for an empty copy.
func (fo folder) copySpan(bytes float64) span {
	if fo.p.UnifiedPhysicalMemory || bytes <= 0 {
		return idle
	}
	return fo.launch(fo.p.TransferTime(bytes))
}

// eagerTime returns the host clock at the end of executor.runEager(g) on
// a fresh runtime, without running it: g's fold inside the bracket.
func eagerTime(p *hw.Platform, g *ops.Graph) sim.Time {
	fo := newFolder(p)
	return fo.bracket(fo.graph(g), g.InputBytes, g.OutputBytes)
}

// bracket returns the host clock at the end of an eager run of s on a
// fresh runtime: the input copy of in bytes, body, a synchronize, and,
// without unified virtual memory, the output copy of out bytes and a
// second synchronize. The run starts at t = 0 and its last act is a
// synchronize, so the result is also the run's trace span.
func (fo folder) bracket(body span, in, out float64) sim.Time {
	var c, f sim.Time
	apply := func(s span) { c, f = c+s.cpu, max(f+s.stream, c+s.launch) }
	if !fo.p.UnifiedVirtualMemory {
		apply(fo.copySpan(in))
	}
	apply(body)
	c = max(c, f)
	if !fo.p.UnifiedVirtualMemory {
		apply(fo.copySpan(out))
		c = max(c, f)
	}
	return c
}
