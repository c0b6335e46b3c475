package engine

import (
	"reflect"
	"slices"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/trace"
)

// cloneGraph deep-copies g, giving every node position its own copy, so
// a write through any shared node shows up as a difference.
func cloneGraph(g *ops.Graph) *ops.Graph {
	c := *g
	c.Nodes = make([]*ops.Node, len(g.Nodes))
	for i, n := range g.Nodes {
		c.Nodes[i] = cloneNode(n)
	}
	return &c
}

func cloneNode(n *ops.Node) *ops.Node {
	c := *n
	c.Kernels = slices.Clone(n.Kernels)
	if n.Children != nil {
		c.Children = make([]*ops.Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = cloneNode(ch)
		}
	}
	return &c
}

// checkSharedLayers asserts that g's layer region is one block of nodes
// referenced once per layer: every node occurs either once or exactly
// layers times, and the repeated nodes form layers back-to-back copies
// of the same block, which g.Repeat records.
func checkSharedLayers(t *testing.T, g *ops.Graph, layers int64) {
	t.Helper()
	count := make(map[*ops.Node]int64)
	for _, n := range g.Nodes {
		count[n]++
	}
	first, repeated := -1, 0
	for i, n := range g.Nodes {
		switch count[n] {
		case 1:
		case layers:
			if first < 0 {
				first = i
			}
			repeated++
		default:
			t.Fatalf("%s: node %d (%s) occurs %d times, want 1 or %d", g.Name, i, g.Nodes[i].Name, count[n], layers)
		}
	}
	if first < 0 {
		t.Fatalf("%s: no node is shared across its %d layers", g.Name, layers)
	}
	block := repeated / int(layers)
	if want := (ops.Repeat{Start: first, Len: block, Count: int(layers)}); g.Repeat != want {
		t.Fatalf("%s: Repeat = %+v, want %+v", g.Name, g.Repeat, want)
	}
	for l := 1; l < int(layers); l++ {
		for j := 0; j < block; j++ {
			if g.Nodes[first+l*block+j] != g.Nodes[first+j] {
				t.Fatalf("%s: layer %d position %d is not the shared block's node", g.Name, l, j)
			}
		}
	}
}

// TestExecutionLeavesSharedGraphsUnchanged: the model builders reference
// one layer block from every layer, which is sound only because nothing
// writes a node once built. Both builders must share their layer blocks,
// and executing a graph in every mode must leave it deeply equal to a
// snapshot taken before the run.
func TestExecutionLeavesSharedGraphsUnchanged(t *testing.T) {
	p := hw.IntelH100()
	for _, m := range []*models.Config{models.GPT2(), models.Llama32_1B(), models.BertBaseUncased()} {
		for _, mode := range Modes() {
			req := Request{Platform: p, Model: m, Batch: 3, Seq: 200, Mode: mode}
			prefill, err := models.BuildPrefill(m, req.Batch, req.Seq, mode.attention())
			if err != nil {
				t.Fatal(err)
			}
			checkSharedLayers(t, prefill, m.Layers)
			snap := cloneGraph(prefill)
			l, err := lower(mode, prefill)
			if err != nil {
				t.Fatal(err)
			}
			newExecutor(p, trace.NewBuilder()).run(&l)
			if !reflect.DeepEqual(prefill, snap) {
				t.Errorf("%s %v: executing the prefill graph modified it", m.Name, mode)
			}
			if m.Kind != models.Decoder {
				continue
			}
			decode, err := models.BuildDecodeStep(m, req.Batch, req.Seq, mode.attention())
			if err != nil {
				t.Fatal(err)
			}
			checkSharedLayers(t, decode, m.Layers)
			snap = cloneGraph(decode)
			newExecutor(p, trace.NewBuilder()).run(&lowering{g: decode})
			if !reflect.DeepEqual(decode, snap) {
				t.Errorf("%s %v: executing the decode graph modified it", m.Name, mode)
			}
		}
	}
}
