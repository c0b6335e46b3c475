package engine

import (
	"math"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/sim"
)

// span summarizes a stretch of execution — one host dispatch thread
// feeding one FIFO stream — by its effect on the host clock c and the
// stream frontier f (the instant the stream drains):
//
//	c' = c + cpu
//	f' = max(f + stream, c + launch)
//
// The launch model (the package doc's Fig. 4 semantics) uses only
// additions and maxima, so every primitive, every node, and every
// sequence of them has an exact span, and spans compose associatively.
// launch is noLaunch for a stretch that launches no kernel. A stretch
// is launch-bound when c + launch wins the max: its stream work waits
// on the host, not on earlier kernels.
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

// clocks is the launch model's state: the host clock c and the stream
// frontier f. A run starts both at t = 0.
type clocks struct{ c, f sim.Time }

// advance moves the clocks by s and returns the host clock before it.
func (k *clocks) advance(s span) sim.Time {
	t := k.c
	k.c, k.f = k.c+s.cpu, max(k.f+s.stream, k.c+s.launch)
	return t
}

// sync is cudaDeviceSynchronize: the host resumes once the stream
// drains.
func (k *clocks) sync() { k.c = max(k.c, k.f) }

// folder computes the spans of the launch model's primitives from the
// platform, and folds whole bodies without running them.
type folder struct {
	p          *hw.Platform
	launchCPU  sim.Time // host time of one launch call
	propagated sim.Time // launch call start to earliest kernel start
}

func newFolder(p *hw.Platform) folder {
	return folder{p: p, launchCPU: max(p.LaunchCPUTime(), 0), propagated: sim.FromNs(p.LaunchOverheadNs)}
}

// dispatch is baseNs of framework host time, scaled to the platform's
// CPU.
func (fo folder) dispatch(baseNs float64) span {
	return span{cpu: max(fo.p.CPUTime(baseNs), 0), launch: noLaunch}
}

// duration is a kernel's execution time; a negative one occupies the
// stream for zero time.
func (fo folder) duration(c hw.KernelCost) sim.Time { return max(fo.p.GPU.KernelDuration(c), 0) }

// launch is one cudaLaunchKernel or cudaMemcpyAsync of d on the
// stream: the call holds the host, and the work starts propagated
// after the call began or when the stream drains, whichever is later.
func (fo folder) launch(d sim.Time) span {
	return span{fo.launchCPU, d, fo.propagated + d}
}

// elided reports whether a host↔device copy of bytes is skipped: on
// unified physical memory, or for an empty copy.
func (fo folder) elided(bytes float64) bool { return fo.p.UnifiedPhysicalMemory || bytes <= 0 }

// copySpan is a host↔device copy of bytes.
func (fo folder) copySpan(bytes float64) span {
	if fo.elided(bytes) {
		return idle
	}
	return fo.launch(fo.p.TransferTime(bytes))
}

// replay is one cudaGraphLaunch of ks: a single launch call, after
// which the kernels run back to back, so it is one launch of their
// summed duration. An empty graph launches nothing.
func (fo folder) replay(ks []ops.Kernel) span {
	if len(ks) == 0 {
		return idle
	}
	var d sim.Time
	for i := range ks {
		d += fo.duration(ks[i].Cost)
	}
	return fo.launch(d)
}

// list is a flat dispatch list: hostNs of host dispatch, then a launch,
// per kernel of ks.
func (fo folder) list(ks []ops.Kernel, hostNs float64) span {
	s, d := idle, fo.dispatch(hostNs)
	for i := range ks {
		s = s.then(d).then(fo.launch(fo.duration(ks[i].Cost)))
	}
	return s
}

// node is the eager walk's span of n: the node's host dispatch, its
// children in order, then its kernels, each replaced as cu says.
func (fo folder) node(n *ops.Node, cu *cursor) span {
	s := fo.dispatch(n.CPUNs)
	for _, c := range n.Children {
		s = s.then(fo.node(c, cu))
	}
	for i := range n.Kernels {
		if k := cu.at(&n.Kernels[i]); k != nil {
			s = s.then(fo.launch(fo.duration(k.Cost)))
		}
	}
	return s
}

// nodes folds a run of top-level operators.
func (fo folder) nodes(s span, ns []*ops.Node, cu *cursor) span {
	for _, n := range ns {
		s = s.then(fo.node(n, cu))
	}
	return s
}

// walk folds the eager walk of g. Without a fusion plan, g.Repeat lets
// it fold the repeated block once and compose its span Count times; a
// graph without a repeat record, or a walk whose plan substitutes
// kernels by flat index, folds node by node.
func (fo folder) walk(g *ops.Graph, plan *chains) span {
	r, ns := g.Repeat, g.Nodes
	if plan != nil {
		return fo.nodes(idle, ns, &cursor{plan: plan})
	}
	if r.Count == 0 {
		return fo.nodes(idle, ns, nil)
	}
	s := fo.nodes(idle, ns[:r.Start], nil)
	block := fo.nodes(idle, ns[r.Start:r.Start+r.Len], nil)
	for i := 0; i < r.Count; i++ {
		s = s.then(block)
	}
	return fo.nodes(s, ns[r.Start+r.Len*r.Count:], nil)
}

// body folds l's body.
func (fo folder) body(l *lowering) span {
	switch l.body {
	case walkBody:
		return fo.walk(l.g, l.plan)
	case listBody:
		return fo.list(l.ks, l.hostNs)
	default:
		return fo.replay(l.ks)
	}
}

// foldTime returns the host clock at the end of running l on fresh
// clocks, without running it: l's body folded inside the bracket.
func foldTime(p *hw.Platform, l *lowering) sim.Time {
	fo := newFolder(p)
	return fo.bracket(fo.body(l), l.g.InputBytes, l.g.OutputBytes)
}

// bracket returns the host clock at the end of a run of body on fresh
// clocks, inside the bracket every run shares (executor.run): the input
// copy of in bytes, body, a synchronize, and, without unified virtual
// memory, the output copy of out bytes and a second synchronize. The
// run starts at t = 0 and its last act is a synchronize, so the result
// is also the run's trace span.
func (fo folder) bracket(body span, in, out float64) sim.Time {
	var k clocks
	uvm := fo.p.UnifiedVirtualMemory
	if !uvm {
		k.advance(fo.copySpan(in))
	}
	k.advance(body)
	k.sync()
	if !uvm {
		k.advance(fo.copySpan(out))
		k.sync()
	}
	return k.c
}
