// Package core implements SKIP, the System-Aware Kernel Inference
// Profiler — the paper's primary contribution. It consumes profiler
// traces (package trace), reconstructs the operator→kernel dependency
// graph the way the paper describes (§IV-A: parent operators contain the
// start times of their children and runtime calls; kernels link to launch
// calls via CUPTI correlation IDs), and derives the paper's metrics:
// TKLQT (Eq. 2), AKD (Eq. 3), IL (Eq. 4), GPU idle time (Eq. 5), top-k
// kernel tracking, and the CPU-bound/GPU-bound workload classification of
// §V-B.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// OpNode is one host operator in the dependency graph, with its nested
// children and the kernel launches attributed to it.
//
// Event points into the source trace's Events, as do a LaunchRecord's
// Launch and Kernel: a graph is valid while that trace is unmodified.
type OpNode struct {
	Event    *trace.Event
	Children []*OpNode
	Launches []*LaunchRecord
}

// Walk visits the subtree in start-time order.
func (n *OpNode) Walk(visit func(*OpNode)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// LaunchRecord pairs a runtime launch call with the device work it
// triggered.
type LaunchRecord struct {
	// Launch is the cudaLaunchKernel / cudaGraphLaunch /cudaMemcpyAsync
	// runtime event.
	Launch *trace.Event
	// Kernel is the correlated device event (kernel or copy); nil when
	// the launch never materialized device work.
	Kernel *trace.Event
	// Op is the innermost operator containing the launch; nil for
	// launches outside any operator span (e.g. captured-graph replays
	// emitted by compiled host code).
	Op *OpNode
}

// LaunchDelay is t_l of Eq. 1: kernel start minus launch-call start. It
// includes the launch overhead and any queuing the kernel suffered.
func (lr *LaunchRecord) LaunchDelay() sim.Time {
	if lr.Kernel == nil {
		return 0
	}
	return lr.Kernel.Ts - lr.Launch.Ts
}

// Graph is the reconstructed operator-kernel dependency graph of one
// trace.
type Graph struct {
	// Parents are the top-level ATen operators, in execution order.
	Parents []*OpNode
	// Launches are all launch records, in launch order.
	Launches []*LaunchRecord
	// Trace is the source trace, whose events the nodes and launch
	// records point into.
	Trace *trace.Trace
}

// BuildGraph reconstructs the dependency graph from a trace: operators
// nest by start-time containment per thread, launches attach to their
// innermost containing operator, kernels attach to launches by
// correlation ID.
//
// The graph is built in a fixed number of allocations, whatever the
// trace size: the nodes and launch records live in two slabs, and every
// node's Children and Launches are capacity-limited windows of two
// shared backing arrays, sized by a counting pass first. No event is
// copied: nodes and records point into tr.Events.
func BuildGraph(tr *trace.Trace) (*Graph, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	g := &Graph{Trace: tr}

	// Collect the device events (kernels and copies) carrying a
	// correlation and the host events (operators and runtime calls), in
	// trace order.
	var nDevice, nHost, nOps, nLaunches int
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Cat {
		case trace.CatKernel, trace.CatMemcpy:
			if e.Correlation != 0 {
				nDevice++
			}
		case trace.CatOperator:
			nHost++
			nOps++
		case trace.CatRuntime:
			nHost++
			if e.Correlation != 0 {
				nLaunches++
			}
		}
	}
	device := make([]int32, 0, nDevice)
	host := make([]int32, 0, nHost)
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Cat {
		case trace.CatKernel, trace.CatMemcpy:
			if e.Correlation != 0 {
				device = append(device, int32(i))
			}
		case trace.CatOperator, trace.CatRuntime:
			host = append(host, int32(i))
		}
	}
	// A launch finds its device event among the device events stably
	// sorted by correlation; should several share one, the last in
	// trace order wins. Launches walked in correlation order, as one
	// executor thread emits them, find theirs at the cursor just past
	// the previous match; any other launch binary-searches.
	byCorr := func(a, b int32) int {
		return cmp.Compare(tr.Events[a].Correlation, tr.Events[b].Correlation)
	}
	if !slices.IsSortedFunc(device, byCorr) {
		slices.SortStableFunc(device, byCorr)
	}
	corrAt := func(i int) uint64 { return tr.Events[device[i]].Correlation }
	next := 0 // the first device index past the previous launch's correlation
	deviceFor := func(corr uint64) *trace.Event {
		i := next + 1
		if next >= len(device) || corrAt(next) != corr || (i < len(device) && corrAt(i) == corr) {
			i = sort.Search(len(device), func(i int) bool { return corrAt(i) > corr })
		}
		next = i
		if i > 0 && corrAt(i-1) == corr {
			return &tr.Events[device[i-1]]
		}
		return nil
	}
	// Walk threads in TID order, each in (start, emission) order: the
	// trace is sorted stably by Ts, so a stable sort by TID keeps each
	// thread's events in trace order.
	byTID := func(a, b int32) int { return cmp.Compare(tr.Events[a].TID, tr.Events[b].TID) }
	if !slices.IsSortedFunc(host, byTID) {
		slices.SortStableFunc(host, byTID)
	}

	// Containment pass: create every node and launch record in walk
	// order. A record links its containing operator at once; a node
	// remembers its parent's index (-1 for none) in nodeUp, which reuses
	// host's array: node n is created at or after host position n, so
	// it overwrites only positions already walked. An operator is the
	// parent of every later host event on its thread whose start falls
	// inside its span (§IV-A).
	nodes := make([]OpNode, nOps)
	records := make([]LaunchRecord, nLaunches)
	nodeUp := host[:nOps]
	var stack []int32
	var nParents, nAttached, n, r int
	tid := 0
	for _, i := range host {
		he := &tr.Events[i]
		if he.TID != tid {
			tid, stack = he.TID, stack[:0]
		}
		// Pop operators that ended before this event starts.
		for len(stack) > 0 && !nodes[stack[len(stack)-1]].Event.Contains(he) {
			stack = stack[:len(stack)-1]
		}
		top := int32(-1)
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if he.Cat == trace.CatOperator {
			nodes[n].Event = he
			nodeUp[n] = top
			if top < 0 {
				nParents++
			}
			stack = append(stack, int32(n))
			n++
			continue
		}
		// Runtime call: record launches (events carrying a correlation —
		// launch/memcpy calls; sync calls carry none).
		if he.Correlation == 0 {
			continue
		}
		records[r] = LaunchRecord{Launch: he, Kernel: deviceFor(he.Correlation)}
		if top >= 0 {
			records[r].Op = &nodes[top]
			nAttached++
		}
		r++
	}

	// Carve each node's Children and Launches out of shared backing
	// arrays (nil when empty, as appending would leave them), then fill
	// them in creation order, which is the order the containment pass
	// found them. The counting pass keeps each node's counts in the
	// lengths of its slices.
	children := make([]*OpNode, nOps-nParents)
	owned := make([]*LaunchRecord, nAttached)
	for _, p := range nodeUp {
		if p >= 0 {
			nodes[p].Children = children[:len(nodes[p].Children)+1]
		}
	}
	for i := range records {
		if op := records[i].Op; op != nil {
			op.Launches = owned[:len(op.Launches)+1]
		}
	}
	var co, lo int
	for i := range nodes {
		nd := &nodes[i]
		if c := len(nd.Children); c > 0 {
			nd.Children = children[co : co : co+c]
			co += c
		}
		if c := len(nd.Launches); c > 0 {
			nd.Launches = owned[lo : lo : lo+c]
			lo += c
		}
	}
	g.Parents = make([]*OpNode, 0, nParents)
	for i, p := range nodeUp {
		if p < 0 {
			g.Parents = append(g.Parents, &nodes[i])
		} else {
			nodes[p].Children = append(nodes[p].Children, &nodes[i])
		}
	}
	g.Launches = make([]*LaunchRecord, nLaunches)
	for i := range records {
		lr := &records[i]
		g.Launches[i] = lr
		if lr.Op != nil {
			lr.Op.Launches = append(lr.Op.Launches, lr)
		}
	}
	return g, nil
}

// ParentCount returns the number of top-level operators.
func (g *Graph) ParentCount() int { return len(g.Parents) }

// OpCount returns the total number of operator nodes.
func (g *Graph) OpCount() int {
	total := 0
	for _, p := range g.Parents {
		p.Walk(func(*OpNode) { total++ })
	}
	return total
}

// KernelLaunches returns launch records that produced a device kernel
// (excluding memcpys), in launch order.
func (g *Graph) KernelLaunches() []*LaunchRecord {
	out := make([]*LaunchRecord, 0, len(g.Launches))
	for _, lr := range g.Launches {
		if lr.Kernel != nil && lr.Kernel.Cat == trace.CatKernel {
			out = append(out, lr)
		}
	}
	return out
}
