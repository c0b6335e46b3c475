package ops

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinearStructure(t *testing.T) {
	n := Linear("q", 2, 512, 768, 768)
	if n.Name != "aten::linear" {
		t.Errorf("Name = %q", n.Name)
	}
	if n.CountKernels() != 1 {
		t.Errorf("kernels = %d, want 1", n.CountKernels())
	}
	if n.CountNodes() != 3 { // linear + t + addmm
		t.Errorf("nodes = %d, want 3", n.CountNodes())
	}
	k := n.FlattenKernels()[0]
	if k.Class != ClassGemm {
		t.Errorf("class = %v", k.Class)
	}
	if !strings.Contains(k.Name, "768x768") {
		t.Errorf("kernel name %q lacks shape signature", k.Name)
	}
	// 2*b*s*k*n FLOPs.
	if want := 2.0 * 2 * 512 * 768 * 768; k.Cost.FLOPs != want {
		t.Errorf("FLOPs = %g, want %g", k.Cost.FLOPs, want)
	}
	if k.Cost.BytesWrite != 2*2*512*768 {
		t.Errorf("BytesWrite = %g", k.Cost.BytesWrite)
	}
}

func TestLinearScalesWithBatch(t *testing.T) {
	k1 := Linear("q", 1, 512, 768, 768).FlattenKernels()[0]
	k8 := Linear("q", 8, 512, 768, 768).FlattenKernels()[0]
	if k8.Cost.FLOPs != 8*k1.Cost.FLOPs {
		t.Errorf("FLOPs should scale 8x: %g vs %g", k8.Cost.FLOPs, k1.Cost.FLOPs)
	}
	// Weight read is batch-invariant, so bytes grow sublinearly.
	if k8.Cost.Bytes() >= 8*k1.Cost.Bytes() {
		t.Error("bytes should scale sublinearly (weights shared)")
	}
	if k8.Cost.Bytes() <= k1.Cost.Bytes() {
		t.Error("bytes must still grow with batch")
	}
}

func TestBMMCost(t *testing.T) {
	n := BMM("qk", 24, 512, 64, 512)
	k := n.FlattenKernels()[0]
	if want := 2.0 * 24 * 512 * 64 * 512; k.Cost.FLOPs != want {
		t.Errorf("FLOPs = %g, want %g", k.Cost.FLOPs, want)
	}
	if k.Cost.BytesWrite != 24*512*512*2 {
		t.Errorf("BytesWrite = %g", k.Cost.BytesWrite)
	}
}

func TestSoftmaxAndNorms(t *testing.T) {
	sm := Softmax("attn", 24*512, 512)
	if sm.CountKernels() != 1 || sm.FlattenKernels()[0].Class != ClassReduction {
		t.Error("softmax should launch one reduction kernel")
	}
	ln := LayerNorm("ln1", 1024, 768)
	if ln.CountKernels() != 1 {
		t.Error("layer_norm should launch one kernel")
	}
	rms := RMSNorm("input", 512, 2048)
	if rms.CountKernels() != 2 {
		t.Errorf("rms_norm kernels = %d, want 2 (eager decomposition)", rms.CountKernels())
	}
}

func TestNewGELUKernelExplosion(t *testing.T) {
	// GPT-2's tanh GELU must decompose into 7 pointwise kernels.
	n := NewGELU("mlp", 512*3072)
	if got := n.CountKernels(); got != 7 {
		t.Errorf("NewGELU kernels = %d, want 7", got)
	}
	exact := GELU("mlp", 512*3072)
	if got := exact.CountKernels(); got != 1 {
		t.Errorf("exact GELU kernels = %d, want 1", got)
	}
}

func TestFlashAttentionReducesTraffic(t *testing.T) {
	b, h, s, hd := int64(1), int64(12), int64(512), int64(64)
	flash := FlashAttention("l0", b, h, s, hd)
	if flash.CountKernels() != 1 {
		t.Fatalf("flash kernels = %d, want 1", flash.CountKernels())
	}
	fk := flash.FlattenKernels()[0]
	if fk.Class != ClassAttention {
		t.Errorf("class = %v", fk.Class)
	}

	// The eager equivalent: QK bmm + softmax + AV bmm.
	var eager Graph
	eager.Nodes = []*Node{
		BMM("qk", b*h, s, hd, s),
		Softmax("attn", b*h*s, s),
		BMM("av", b*h, s, s, hd),
	}
	eagerCost := eager.TotalCost()

	// FLOPs conserved (within the softmax accounting).
	if fk.Cost.FLOPs < eagerCost.FLOPs*0.8 || fk.Cost.FLOPs > eagerCost.FLOPs*1.2 {
		t.Errorf("flash FLOPs %g vs eager %g: should be conserved", fk.Cost.FLOPs, eagerCost.FLOPs)
	}
	// HBM traffic must drop sharply (no S matrix materialization).
	if fk.Cost.Bytes() >= eagerCost.Bytes()/2 {
		t.Errorf("flash bytes %g vs eager %g: want <50%%", fk.Cost.Bytes(), eagerCost.Bytes())
	}
}

func TestEmbeddingGather(t *testing.T) {
	e := Embedding("wte", 512, 768)
	k := e.FlattenKernels()[0]
	if k.Class != ClassEmbedding {
		t.Errorf("class = %v", k.Class)
	}
	if k.Cost.BytesWrite != 512*768*2 {
		t.Errorf("BytesWrite = %g", k.Cost.BytesWrite)
	}
}

func TestRoPEKernels(t *testing.T) {
	r := RoPE("q", 512*2048)
	if got := r.CountKernels(); got != 3 {
		t.Errorf("RoPE kernels = %d, want 3", got)
	}
}

func TestGraphAccounting(t *testing.T) {
	g := Graph{Name: "test"}
	g.Nodes = append(g.Nodes, Linear("a", 1, 128, 64, 64), Pointwise("add", "res", 128*64, 2, 1))
	if g.KernelCount() != 2 {
		t.Errorf("KernelCount = %d", g.KernelCount())
	}
	if g.NodeCount() != 4 {
		t.Errorf("NodeCount = %d", g.NodeCount())
	}
	if got := len(g.FlattenKernels()); got != 2 {
		t.Errorf("FlattenKernels = %d", got)
	}
	if g.TotalCost().FLOPs <= 0 {
		t.Error("TotalCost should accumulate")
	}
}

// TestFlattenKernelsLaunchOrder: FlattenKernels lists kernels in the
// order the executor launches them, a node's children's kernels before
// its own, in one presized slice.
func TestFlattenKernelsLaunchOrder(t *testing.T) {
	k := func(name string) Kernel { return Kernel{Name: name, Class: ClassElementwise} }
	leaf := func(name string, ks ...Kernel) *Node { return &Node{Name: name, Kernels: ks} }
	for _, c := range []struct {
		name string
		g    Graph
		want []string
	}{
		{"empty", Graph{}, nil},
		{"leaves", Graph{Nodes: []*Node{leaf("a", k("a1"), k("a2")), leaf("b", k("b1"))}}, []string{"a1", "a2", "b1"}},
		{"linear", Graph{Nodes: []*Node{Linear("q", 1, 4, 4, 4)}}, []string{Linear("q", 1, 4, 4, 4).Children[1].Kernels[0].Name}},
		{"children then own kernels", Graph{Nodes: []*Node{{
			Name:     "parent",
			Children: []*Node{leaf("c1", k("c1k")), {Name: "c2", Children: []*Node{leaf("g", k("gk"))}, Kernels: []Kernel{k("c2k")}}},
			Kernels:  []Kernel{k("p1"), k("p2")},
		}, leaf("next", k("nk"))}}, []string{"c1k", "gk", "c2k", "p1", "p2", "nk"}},
	} {
		got := c.g.FlattenKernels()
		var names []string
		for _, kk := range got {
			names = append(names, kk.Name)
		}
		if !slices.Equal(names, c.want) {
			t.Errorf("%s: FlattenKernels = %v, want %v", c.name, names, c.want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: FlattenKernels capacity %d for %d kernels, want presized", c.name, cap(got), len(got))
		}
		if len(c.g.Nodes) > 0 {
			if first := c.g.Nodes[0].FlattenKernels(); len(first) == 0 || first[0].Name != c.want[0] {
				t.Errorf("%s: Node.FlattenKernels = %v", c.name, first)
			}
		}
	}
}

func TestWalkOrder(t *testing.T) {
	n := Linear("q", 1, 4, 4, 4)
	var names []string
	n.Walk(func(m *Node) { names = append(names, m.Name) })
	want := []string{"aten::linear", "aten::t", "aten::addmm"}
	if len(names) != len(want) {
		t.Fatalf("walk = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("walk = %v, want %v", names, want)
		}
	}
}

func TestKernelClassStrings(t *testing.T) {
	for c, want := range map[KernelClass]string{
		ClassGemm: "gemm", ClassAttention: "attention", ClassElementwise: "elementwise",
		ClassReduction: "reduction", ClassCopy: "copy", ClassEmbedding: "embedding",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if KernelClass(42).String() != "class(42)" {
		t.Error("unknown class string")
	}
}

func TestFusible(t *testing.T) {
	if !ClassElementwise.Fusible() || !ClassCopy.Fusible() {
		t.Error("pointwise and copy must be fusible")
	}
	if ClassGemm.Fusible() || ClassAttention.Fusible() || ClassReduction.Fusible() {
		t.Error("gemm/attention/reduction must not be fusible")
	}
}

func elemK(name string, bytes float64) Kernel {
	return Kernel{Name: name, Class: ClassElementwise,
		Cost: kcost(bytes/2, bytes, bytes)}
}

func gemmK(name string) Kernel {
	return Kernel{Name: name, Class: ClassGemm, Cost: kcost(1e9, 1e6, 1e6)}
}

func TestFuseElementwiseMergesRuns(t *testing.T) {
	ks := []Kernel{
		gemmK("g1"),
		elemK("e1", 100), elemK("e2", 100), elemK("e3", 100),
		gemmK("g2"),
		elemK("e4", 100),
		gemmK("g3"),
	}
	fused := FuseElementwise(ks, 2)
	// g1, fused(e1..e3), g2, e4 (run of 1 untouched), g3.
	if len(fused) != 5 {
		t.Fatalf("fused length = %d, want 5: %+v", len(fused), fused)
	}
	if !strings.HasPrefix(fused[1].Name, "triton_fused_pointwise") {
		t.Errorf("fused[1] = %q", fused[1].Name)
	}
	// FLOPs conserved across the fused run.
	if fused[1].Cost.FLOPs != 150 {
		t.Errorf("fused FLOPs = %g, want 150", fused[1].Cost.FLOPs)
	}
	// Intermediate traffic eliminated: boundary tensors only.
	if fused[1].Cost.Bytes() != 200 {
		t.Errorf("fused bytes = %g, want 200", fused[1].Cost.Bytes())
	}
	if fused[3].Name != "e4" {
		t.Errorf("singleton run should be untouched, got %q", fused[3].Name)
	}
}

func TestFuseElementwiseMinRun(t *testing.T) {
	ks := []Kernel{elemK("a", 10), elemK("b", 10), gemmK("g")}
	if got := len(FuseElementwise(ks, 3)); got != 3 {
		t.Errorf("minRun=3 should leave 2-run alone, got %d kernels", got)
	}
	if got := len(FuseElementwise(ks, 0)); got != 2 {
		t.Errorf("minRun<2 clamps to 2, got %d kernels", got)
	}
}

func TestFuseElementwiseEmptyAndAllFusible(t *testing.T) {
	if got := FuseElementwise(nil, 2); len(got) != 0 {
		t.Errorf("empty input → %v", got)
	}
	all := []Kernel{elemK("a", 10), elemK("b", 10), elemK("c", 10), elemK("d", 10)}
	fused := FuseElementwise(all, 2)
	if len(fused) != 1 {
		t.Errorf("all-fusible should collapse to 1, got %d", len(fused))
	}
}

// Property: fusion never increases kernel count or byte traffic, and
// conserves FLOPs.
func TestFuseElementwiseProperties(t *testing.T) {
	f := func(pattern []bool) bool {
		if len(pattern) > 100 {
			pattern = pattern[:100]
		}
		var ks []Kernel
		for i, fusible := range pattern {
			if fusible {
				ks = append(ks, elemK("e", float64(10+i)))
			} else {
				ks = append(ks, gemmK("g"))
			}
		}
		fused := FuseElementwise(ks, 2)
		if len(fused) > len(ks) {
			return false
		}
		var fb, fa, flopsB, flopsA float64
		for _, k := range ks {
			fb += k.Cost.Bytes()
			flopsB += k.Cost.FLOPs
		}
		for _, k := range fused {
			fa += k.Cost.Bytes()
			flopsA += k.Cost.FLOPs
		}
		return fa <= fb && flopsA == flopsB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A fused run is one kernel that moves fewer bytes than the run it
// replaces.
func TestFuseElementwiseMovesFewerBytes(t *testing.T) {
	before := []Kernel{elemK("a", 100), elemK("b", 100)}
	after := FuseElementwise(before, 2)
	if len(after) != 1 {
		t.Fatalf("fused %d kernels into %d, want 1", len(before), len(after))
	}
	var bytesBefore float64
	for _, k := range before {
		bytesBefore += k.Cost.Bytes()
	}
	if got := after[0].Cost.Bytes(); got >= bytesBefore {
		t.Errorf("fused bytes = %g, want < %g", got, bytesBefore)
	}
}

func TestMatmulFLOPs(t *testing.T) {
	// 2*m*k*n, batched.
	if got := matmulFLOPs(1, 2, 3, 4); got != 48 {
		t.Errorf("matmulFLOPs = %v, want 48", got)
	}
	if got := matmulFLOPs(5, 2, 3, 4); got != 240 {
		t.Errorf("batched matmulFLOPs = %v, want 240", got)
	}
}

// Property: FLOPs scale linearly in every dimension.
func TestMatmulFLOPsLinearity(t *testing.T) {
	f := func(b, m, k, n uint8) bool {
		bb, mm, kk, nn := int64(b%16+1), int64(m%16+1), int64(k%16+1), int64(n%16+1)
		return matmulFLOPs(2*bb, mm, kk, nn) == 2*matmulFLOPs(bb, mm, kk, nn) &&
			matmulFLOPs(bb, 2*mm, kk, nn) == 2*matmulFLOPs(bb, mm, kk, nn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElementwiseFLOPs(t *testing.T) {
	if got := pointwiseCost(100, 1, 2.5).FLOPs; got != 250 {
		t.Errorf("pointwise FLOPs = %v, want 250", got)
	}
}
