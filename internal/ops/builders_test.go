package ops

import (
	"reflect"
	"testing"
)

// constructorCase is one call of a constructor and of its reference.
type constructorCase struct {
	name     string
	got, ref func() *Node
}

// constructorGrid calls every constructor over a grid of shapes and
// labels, each paired with the same call of its reference.
func constructorGrid() []constructorCase {
	var cases []constructorCase
	add := func(name string, got, ref func() *Node) {
		cases = append(cases, constructorCase{name, got, ref})
	}
	labels := []string{"", "q", "q_proj", "lm_head", "a_label_longer_than_the_sixty_four_byte_stack_buffer_of_shapeName"}
	shapes := [][4]int64{{1, 1, 1, 1}, {1, 64, 768, 768}, {3, 129, 2048, 512}, {16, 1, 4096, 128256}, {7, 513, 3072, 50257}}
	for _, l := range labels {
		for _, s := range shapes {
			l, b, m, k, n := l, s[0], s[1], s[2], s[3]
			add("Linear", func() *Node { return Linear(l, b, m, k, n) }, func() *Node { return refLinear(l, b, m, k, n) })
			add("Conv1D", func() *Node { return Conv1D(l, b, m, k, n) }, func() *Node { return refConv1D(l, b, m, k, n) })
			add("BMM", func() *Node { return BMM(l, b, m, k, n) }, func() *Node { return refBMM(l, b, m, k, n) })
			add("Softmax", func() *Node { return Softmax(l, b*m, k) }, func() *Node { return refSoftmax(l, b*m, k) })
			add("LayerNorm", func() *Node { return LayerNorm(l, b*m, k) }, func() *Node { return refLayerNorm(l, b*m, k) })
			add("RMSNorm", func() *Node { return RMSNorm(l, b*m, k) }, func() *Node { return refRMSNorm(l, b*m, k) })
			add("GELU", func() *Node { return GELU(l, b*m*k) }, func() *Node { return refGELU(l, b*m*k) })
			add("NewGELU", func() *Node { return NewGELU(l, b*m*k) }, func() *Node { return refNewGELU(l, b*m*k) })
			add("SiLUMul", func() *Node { return SiLUMul(l, b*m*k) }, func() *Node { return refSiLUMul(l, b*m*k) })
			add("Embedding", func() *Node { return Embedding(l, b*m, k) }, func() *Node { return refEmbedding(l, b*m, k) })
			add("RoPE", func() *Node { return RoPE(l, b*m*k) }, func() *Node { return refRoPE(l, b*m*k) })
			add("FlashAttention", func() *Node { return FlashAttention(l, b, m, k, n) }, func() *Node { return refFlashAttention(l, b, m, k, n) })
			add("DecodeFlashAttention", func() *Node { return DecodeFlashAttention(b, m, k, n) }, func() *Node { return refDecodeFlashAttention(b, m, k, n) })
			for _, aten := range []string{"add", "div", "full_like", "gelu", "mul", "pow", "silu", "tanh", "to", "where", "sigmoid", ""} {
				aten := aten
				for _, ins := range []int{0, 1, 3} {
					ins := ins
					add("Pointwise/"+aten, func() *Node { return Pointwise(aten, l, b*m, ins, float64(k)/7) },
						func() *Node { return refPointwise(aten, l, b*m, ins, float64(k)/7) })
				}
			}
			for _, aten := range []string{"cat", "contiguous", "expand", "slice", "split", "permute", ""} {
				aten := aten
				add("Copy/"+aten, func() *Node { return Copy(aten, l, b*m*k) }, func() *Node { return refCopy(aten, l, b*m*k) })
			}
		}
	}
	return cases
}

// TestConstructorsMatchReference: every one-block constructor builds a
// tree equal, field for field, to the original per-node constructor's,
// and every Children and Kernels slice in it is capacity-capped.
func TestConstructorsMatchReference(t *testing.T) {
	for _, c := range constructorGrid() {
		got, want := c.got(), c.ref()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: built %+v, reference %+v", c.name, got, want)
		}
		got.Walk(func(n *Node) {
			if len(n.Children) != cap(n.Children) || len(n.Kernels) != cap(n.Kernels) {
				t.Fatalf("%s: %s has Children len %d cap %d, Kernels len %d cap %d; want len == cap",
					c.name, n.Name, len(n.Children), cap(n.Children), len(n.Kernels), cap(n.Kernels))
			}
		})
	}
}

// TestReaderAppendCannotReachSibling: appending to a node's Kernels or
// Children copies, so the arrays that share the block are untouched.
func TestReaderAppendCannotReachSibling(t *testing.T) {
	n := RoPE("q", 32)
	cat, mul := n.Children[0], n.Children[1]
	before := mul.Kernels[0]
	grown := append(cat.Kernels, Kernel{Name: "intruder"})
	kids := append(n.Children, &Node{Name: "intruder"})
	if mul.Kernels[0] != before || &grown[0] == &cat.Kernels[0] || &kids[0] == &n.Children[0] {
		t.Fatal("an append to one node's slice wrote into the block instead of copying")
	}
}

// oneOfEach calls each constructor once, at decode-step shapes.
var oneOfEach = []struct {
	name  string
	build func() *Node
}{
	{"Linear", func() *Node { return Linear("q_proj", 8, 1, 2048, 2048) }},
	{"Conv1D", func() *Node { return Conv1D("c_attn", 8, 1, 768, 2304) }},
	{"BMM", func() *Node { return BMM("qk", 256, 1, 64, 512) }},
	{"Softmax", func() *Node { return Softmax("attn", 256, 512) }},
	{"LayerNorm", func() *Node { return LayerNorm("ln_1", 8, 768) }},
	{"RMSNorm", func() *Node { return RMSNorm("input", 8, 2048) }},
	{"Pointwise", func() *Node { return Pointwise("add", "residual", 8*2048, 2, 1) }},
	{"GELU", func() *Node { return GELU("mlp", 8*3072) }},
	{"NewGELU", func() *Node { return NewGELU("mlp", 8*3072) }},
	{"SiLUMul", func() *Node { return SiLUMul("mlp", 8*8192) }},
	{"Copy", func() *Node { return Copy("contiguous", "context", 8*2048) }},
	{"Embedding", func() *Node { return Embedding("wte", 8, 2048) }},
	{"RoPE", func() *Node { return RoPE("q", 8*2048) }},
	{"FlashAttention", func() *Node { return FlashAttention("dec", 8, 32, 512, 64) }},
	{"DecodeFlashAttention", func() *Node { return DecodeFlashAttention(8, 32, 512, 64) }},
}

// BenchmarkOperators times one call of each constructor, the work an
// oracle miss repeats per operator node.
func BenchmarkOperators(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, op := range oneOfEach {
			benchNode = op.build()
		}
	}
}

// benchNode keeps the benchmarked trees observable to the compiler.
var benchNode *Node
