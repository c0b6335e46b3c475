package core_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

// referenceBuildGraph is the original per-node-allocating construction:
// host events grouped per TID in a map, one heap node per operator and
// one heap record per launch, children and launches appended one by
// one.
func referenceBuildGraph(tr *trace.Trace) (*core.Graph, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	g := &core.Graph{Trace: tr}
	kernelByCorr := make(map[uint64]*trace.Event)
	for i := range tr.Events {
		e := &tr.Events[i]
		if (e.Cat == trace.CatKernel || e.Cat == trace.CatMemcpy) && e.Correlation != 0 {
			kernelByCorr[e.Correlation] = e
		}
	}
	byTID := make(map[int][]*trace.Event)
	var tids []int
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Cat == trace.CatOperator || e.Cat == trace.CatRuntime {
			if _, ok := byTID[e.TID]; !ok {
				tids = append(tids, e.TID)
			}
			byTID[e.TID] = append(byTID[e.TID], e)
		}
	}
	sort.Ints(tids)
	for _, tid := range tids {
		var stack []*core.OpNode
		for _, ev := range byTID[tid] {
			for len(stack) > 0 && !stack[len(stack)-1].Event.Contains(ev) {
				stack = stack[:len(stack)-1]
			}
			if ev.Cat == trace.CatOperator {
				node := &core.OpNode{Event: ev}
				if len(stack) == 0 {
					g.Parents = append(g.Parents, node)
				} else {
					top := stack[len(stack)-1]
					top.Children = append(top.Children, node)
				}
				stack = append(stack, node)
				continue
			}
			if ev.Correlation == 0 {
				continue
			}
			lr := &core.LaunchRecord{Launch: ev, Kernel: kernelByCorr[ev.Correlation]}
			if len(stack) > 0 {
				lr.Op = stack[len(stack)-1]
				lr.Op.Launches = append(lr.Op.Launches, lr)
			}
			g.Launches = append(g.Launches, lr)
		}
	}
	return g, nil
}

// sameGraph compares two graphs of one trace: the operator forest node
// by node in children order, every launch in launch order with its
// event and kernel pointers and Op link, and each node's launch list.
// It also checks that every node's Children and Launches are
// capacity-limited, so an append through one node cannot overwrite a
// neighbour's.
func sameGraph(want, got *core.Graph) error {
	nodes := make(map[*core.OpNode]*core.OpNode)
	var walk func(path string, w, g []*core.OpNode) error
	walk = func(path string, w, g []*core.OpNode) error {
		if len(w) != len(g) {
			return fmt.Errorf("%s: %d nodes, want %d", path, len(g), len(w))
		}
		for i := range w {
			p := fmt.Sprintf("%s/%d", path, i)
			if w[i].Event != g[i].Event {
				return fmt.Errorf("%s: event %+v, want %+v", p, *g[i].Event, *w[i].Event)
			}
			if cap(g[i].Children) != len(g[i].Children) || cap(g[i].Launches) != len(g[i].Launches) {
				return fmt.Errorf("%s: children or launches not capacity-limited", p)
			}
			if (w[i].Children == nil) != (g[i].Children == nil) || (w[i].Launches == nil) != (g[i].Launches == nil) {
				return fmt.Errorf("%s: empty children or launches not nil", p)
			}
			nodes[w[i]] = g[i]
			if err := walk(p, w[i].Children, g[i].Children); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk("", want.Parents, got.Parents); err != nil {
		return err
	}
	if len(want.Launches) != len(got.Launches) {
		return fmt.Errorf("%d launches, want %d", len(got.Launches), len(want.Launches))
	}
	records := make(map[*core.LaunchRecord]*core.LaunchRecord)
	for i, w := range want.Launches {
		g := got.Launches[i]
		records[w] = g
		if w.Launch != g.Launch || w.Kernel != g.Kernel {
			return fmt.Errorf("launch %d: %+v → %p, want %+v → %p", i, *g.Launch, g.Kernel, *w.Launch, w.Kernel)
		}
		if (w.Op == nil) != (g.Op == nil) || (w.Op != nil && nodes[w.Op] != g.Op) {
			return fmt.Errorf("launch %d: Op link differs", i)
		}
	}
	for w, g := range nodes {
		if len(w.Launches) != len(g.Launches) {
			return fmt.Errorf("node %s: %d launches, want %d", w.Event.Name, len(g.Launches), len(w.Launches))
		}
		for j := range w.Launches {
			if records[w.Launches[j]] != g.Launches[j] {
				return fmt.Errorf("node %s: launch %d differs", w.Event.Name, j)
			}
		}
	}
	return nil
}

// multiThreadTrace has operators on three threads, emitted interleaved
// with higher TIDs first: nested operators, launches inside and outside
// any operator, a launch with no device work, a copy, a synchronize,
// device events whose start order differs from their correlation
// order, a kernel and a copy sharing one correlation, and a thread
// whose only operator starts inside the previous thread's last one.
func multiThreadTrace() *trace.Trace {
	b := trace.NewBuilder()
	b.Operator("t3_only", 3, 450, 10)
	b.Operator("t2_outer", 2, 0, 100)
	b.Operator("t1_outer", 1, 5, 200)
	b.Operator("t2_inner", 2, 10, 30)
	b.Launch("cudaLaunchKernel", 2, 12, 3, 1)
	b.Kernel("k1", 7, 20, 10, 1, 0, 0)
	b.Launch("cudaLaunchKernel", 1, 15, 3, 2)
	b.Kernel("k2", 7, 40, 10, 2, 0, 0)
	b.Operator("t1_inner", 1, 30, 50)
	b.Launch("cudaMemcpyAsync", 1, 35, 3, 3)
	b.Memcpy("Memcpy HtoD", 7, 60, 5, 3, 64)
	b.Launch("cudaLaunchKernel", 2, 50, 3, 4) // no kernel materialized
	b.Runtime("cudaDeviceSynchronize", 1, 90, 10)
	b.Launch("cudaLaunchKernel", 1, 300, 3, 5) // outside every operator
	b.Kernel("k3", 7, 310, 10, 5, 0, 0)
	b.Launch("cudaLaunchKernel", 1, 302, 1, 6)
	b.Kernel("k_early", 8, 305, 2, 6, 0, 0)
	b.Launch("cudaLaunchKernel", 1, 320, 3, 7)
	b.Kernel("k4", 7, 330, 5, 7, 0, 0)
	b.Memcpy("Memcpy DtoH", 7, 340, 5, 7, 64)
	b.Operator("t2_late", 2, 400, 100)
	return b.Trace()
}

// graphTraces returns engine traces of every mode, a multi-thread
// synthetic trace and a JSON round-tripped trace.
func graphTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	traces := map[string]*trace.Trace{"multi-tid": multiThreadTrace()}
	for _, mode := range engine.Modes() {
		res, err := engine.Run(engine.Request{Platform: hw.IntelH100(), Model: models.GPT2(), Batch: 2, Seq: 128, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		traces[mode.String()] = res.Trace
	}
	var buf bytes.Buffer
	if err := traces["eager"].WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	traces["json"] = loaded
	return traces
}

// TestBuildGraphMatchesReference: the slab-built graph equals the
// original construction on every graphTraces trace.
func TestBuildGraphMatchesReference(t *testing.T) {
	for name, tr := range graphTraces(t) {
		want, err := referenceBuildGraph(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := core.BuildGraph(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameGraph(want, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBuildGraphPointsIntoTrace: the graph copies no event. Every
// node's Event and every record's Launch and Kernel is the address of
// an element of tr.Events, on every graphTraces trace.
func TestBuildGraphPointsIntoTrace(t *testing.T) {
	for name, tr := range graphTraces(t) {
		g, err := core.BuildGraph(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := make(map[*trace.Event]bool, len(tr.Events))
		for i := range tr.Events {
			in[&tr.Events[i]] = true
		}
		for _, p := range g.Parents {
			p.Walk(func(n *core.OpNode) {
				if !in[n.Event] {
					t.Errorf("%s: operator %s does not point into the trace", name, n.Event.Name)
				}
			})
		}
		for i, lr := range g.Launches {
			if !in[lr.Launch] || (lr.Kernel != nil && !in[lr.Kernel]) {
				t.Errorf("%s: launch %d does not point into the trace", name, i)
			}
		}
	}
}

// BenchmarkBuildGraph measures dependency-graph construction over a
// llama-3.2-1B eager prefill trace (GH200, BS=1, seq 512).
func BenchmarkBuildGraph(b *testing.B) {
	res, err := engine.Run(engine.Request{Platform: hw.GH200(), Model: models.Llama32_1B(), Batch: 1, Seq: 512, Mode: engine.Eager})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildGraph(res.Trace); err != nil {
			b.Fatal(err)
		}
	}
}
