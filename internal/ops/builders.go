package ops

import (
	"strconv"

	"github.com/skipsim/skip/internal/hw"
)

// The constructors below mirror the ATen operator structures PyTorch
// eager mode produces for the building blocks of transformer inference.
// Shape arguments follow the convention: b = batch, s = sequence length,
// k/n = GEMM inner/outer dims, h = heads, hd = head dim.
//
// Only Linear, Conv1D, BMM and Embedding use their label: it names
// their kernel. Every other constructor ignores it, as real traces'
// functor-generic kernel symbols do; the parameter keeps call sites
// self-describing.
//
// Each constructor makes one heap allocation for its whole tree (see
// Node), plus one for the kernel name when that carries a label or a
// shape.

// leafBlock is the allocation of an operator that launches one kernel
// and has no children.
type leafBlock struct {
	node    Node
	kernels [1]Kernel
}

// leaf allocates n, launching k.
func leaf(n Node, k Kernel) *Node {
	b := &leafBlock{node: n, kernels: [1]Kernel{k}}
	b.node.Kernels = b.kernels[:]
	return &b.node
}

// wrapBlock is the allocation of a composite operator over one child
// that launches one kernel (aten::matmul → aten::bmm and the like).
type wrapBlock struct {
	node, child Node
	children    [1]*Node
	kernels     [1]Kernel
}

// wrap allocates the composite name over childName, which launches k.
func wrap(name, childName string, k Kernel) *Node {
	b := &wrapBlock{kernels: [1]Kernel{k}}
	b.child = Node{Name: childName, CPUNs: CPUKernelOp, Kernels: b.kernels[:]}
	b.children[0] = &b.child
	b.node = Node{Name: name, CPUNs: CPUComposite, Children: b.children[:]}
	return &b.node
}

// fan2, fan3 and fan7 are the allocations of composite operators over
// two, three and seven children that each launch one kernel.
type (
	fan2 struct {
		node     Node
		kids     [2]Node
		children [2]*Node
		kernels  [2]Kernel
	}
	fan3 struct {
		node     Node
		kids     [3]Node
		children [3]*Node
		kernels  [3]Kernel
	}
	fan7 struct {
		node     Node
		kids     [7]Node
		children [7]*Node
		kernels  [7]Kernel
	}
)

// fan links a fan block: kids[i] launches kernels[i], and node is the
// composite over all kids. The caller has filled in each kid's name and
// host cost and each kernel.
func fan(node *Node, name string, kids []Node, children []*Node, kernels []Kernel) *Node {
	for i := range kids {
		kids[i].Kernels = kernels[i : i+1 : i+1]
		children[i] = &kids[i]
	}
	*node = Node{Name: name, CPUNs: CPUComposite, Children: children}
	return node
}

// shapeName builds "<prefix><label>_<k>x<n>" with one allocation.
func shapeName(prefix, label string, k, n int64) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = append(b, label...)
	b = append(b, '_')
	b = strconv.AppendInt(b, k, 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, n, 10)
	return string(b)
}

// linearBlock is Linear's allocation: aten::linear, its aten::t and
// aten::addmm children, and the GEMM kernel.
type linearBlock struct {
	node, t, addmm Node
	children       [2]*Node
	kernels        [1]Kernel
}

// Linear builds aten::linear over a (b·s × k) input and (k × n) weight:
// the composite dispatches aten::t (a view) and aten::addmm, which
// launches one shape-specialized GEMM kernel named after label.
func Linear(label string, b, s, k, n int64) *Node {
	blk := &linearBlock{kernels: [1]Kernel{{
		Name:  shapeName("gemm_f16_", label, k, n),
		Class: ClassGemm,
		Cost:  gemmCost(b, s, k, n),
	}}}
	blk.t = Node{Name: "aten::t", CPUNs: CPUView}
	blk.addmm = Node{Name: "aten::addmm", CPUNs: CPUKernelOp, Kernels: blk.kernels[:]}
	blk.children = [2]*Node{&blk.t, &blk.addmm}
	blk.node = Node{Name: "aten::linear", CPUNs: CPUComposite, Children: blk.children[:]}
	return &blk.node
}

// Conv1D builds the transformers.Conv1D used by GPT-2 (a transposed
// linear): aten::addmm directly under the module call, its GEMM kernel
// named after label.
func Conv1D(label string, b, s, k, n int64) *Node {
	return leaf(Node{Name: "aten::addmm", CPUNs: CPUKernelOp}, Kernel{
		Name:  shapeName("gemm_f16_", label, k, n),
		Class: ClassGemm,
		Cost:  gemmCost(b, s, k, n),
	})
}

// BMM builds aten::matmul → aten::bmm over (batch × m × k)·(batch × k × n),
// its kernel named after label.
func BMM(label string, batch, m, k, n int64) *Node {
	return wrap("aten::matmul", "aten::bmm", Kernel{
		Name:  shapeName("bmm_f16_", label, k, n),
		Class: ClassGemm,
		Cost:  bmmCost(batch, m, k, n),
	})
}

// Softmax builds aten::softmax → aten::_softmax over scores of
// (rows × cols): one warp-parallel reduction kernel reading and writing
// the score matrix. The label is ignored.
func Softmax(label string, rows, cols int64) *Node {
	elems := rows * cols
	return wrap("aten::softmax", "aten::_softmax", Kernel{
		Name:  "softmax_warp_forward",
		Class: ClassReduction,
		// Online softmax: one read for max/sum, one read+write for
		// normalization.
		Cost: kcost(float64(elems)*5, float64(2*elems*elemSize), float64(elems*elemSize)),
	})
}

// LayerNorm builds aten::layer_norm → aten::native_layer_norm: one
// reduction kernel over (rows × hidden). The label is ignored.
func LayerNorm(label string, rows, hidden int64) *Node {
	elems := rows * hidden
	return wrap("aten::layer_norm", "aten::native_layer_norm", Kernel{
		Name:  "vectorized_layer_norm_kernel",
		Class: ClassReduction,
		Cost:  kcost(float64(elems)*8, float64(2*elems*elemSize), float64(elems*elemSize)),
	})
}

// RMSNorm builds the LlamaRMSNorm eager decomposition: pow/mean variance
// reduction then the scaled multiply — two kernels, as HF traces show.
// The label is ignored.
func RMSNorm(label string, rows, hidden int64) *Node {
	elems := rows * hidden
	b := &fan2{
		kids: [2]Node{
			{Name: "aten::mean", CPUNs: CPUKernelOp},
			{Name: "aten::mul", CPUNs: CPUPointwise},
		},
		kernels: [2]Kernel{
			{
				Name:  "reduce_variance_kernel",
				Class: ClassReduction,
				Cost:  kcost(float64(elems)*3, float64(elems*elemSize), float64(rows*4)),
			},
			{
				Name:  "rms_norm_scale_kernel",
				Class: ClassElementwise,
				Cost:  pointwiseCost(elems, 2, 2),
			},
		},
	}
	return fan(&b.node, "aten::rms_norm", b.kids[:], b.children[:], b.kernels[:])
}

// pointwiseSymbols returns the operator and kernel symbols of the
// pointwise op aten ("aten::add", "elementwise_add"): constants for
// every op the model builders use, a concatenation for any other.
func pointwiseSymbols(aten string) (op, kernel string) {
	switch aten {
	case "add":
		return "aten::add", "elementwise_add"
	case "div":
		return "aten::div", "elementwise_div"
	case "full_like":
		return "aten::full_like", "elementwise_full_like"
	case "gelu":
		return "aten::gelu", "elementwise_gelu"
	case "mul":
		return "aten::mul", "elementwise_mul"
	case "pow":
		return "aten::pow", "elementwise_pow"
	case "silu":
		return "aten::silu", "elementwise_silu"
	case "tanh":
		return "aten::tanh", "elementwise_tanh"
	case "to":
		return "aten::to", "elementwise_to"
	case "where":
		return "aten::where", "elementwise_where"
	}
	return "aten::" + aten, "elementwise_" + aten
}

// pointwiseOp returns the pointwise op aten over elems elements with
// ins input tensors, and the kernel it launches.
func pointwiseOp(aten string, elems int64, ins int, flopsPerElem float64) (Node, Kernel) {
	op, kernel := pointwiseSymbols(aten)
	return Node{Name: op, CPUNs: CPUPointwise},
		Kernel{Name: kernel, Class: ClassElementwise, Cost: pointwiseCost(elems, ins, flopsPerElem)}
}

// Pointwise builds a single-kernel elementwise op (aten::add, aten::mul,
// aten::div, aten::tanh, …) over elems elements with ins input tensors.
// The kernel label is ignored.
func Pointwise(aten, kernelLabel string, elems int64, ins int, flopsPerElem float64) *Node {
	return leaf(pointwiseOp(aten, elems, ins, flopsPerElem))
}

// GELU builds aten::gelu (exact): one fused kernel. The label is
// ignored.
func GELU(label string, elems int64) *Node {
	return Pointwise("gelu", label, elems, 1, 8)
}

// NewGELU builds the GPT-2 "gelu_new" tanh approximation, which HF
// computes with a chain of seven eager pointwise ops (pow, mul, add, mul,
// tanh, add, mul) — the reason GPT-2 launches far more kernels per layer
// than BERT. The label is ignored.
func NewGELU(label string, elems int64) *Node {
	b := &fan7{}
	for i, op := range [7]struct {
		aten string
		ins  int
		fl   float64
	}{
		{"pow", 1, 2}, {"mul", 1, 1}, {"add", 2, 1}, {"mul", 1, 1},
		{"tanh", 1, 6}, {"add", 1, 1}, {"mul", 2, 2},
	} {
		b.kids[i], b.kernels[i] = pointwiseOp(op.aten, elems, op.ins, op.fl)
	}
	return fan(&b.node, "NewGELUActivation", b.kids[:], b.children[:], b.kernels[:])
}

// SiLUMul builds the Llama/Mistral gated MLP activation: aten::silu then
// aten::mul over the intermediate activations. The label is ignored.
func SiLUMul(label string, elems int64) *Node {
	b := &fan2{}
	b.kids[0], b.kernels[0] = pointwiseOp("silu", elems, 1, 5)
	b.kids[1], b.kernels[1] = pointwiseOp("mul", elems, 2, 1)
	return fan(&b.node, "aten::silu_mul", b.kids[:], b.children[:], b.kernels[:])
}

// copySymbols returns the operator and kernel symbols of the layout op
// aten. Real PyTorch traces materialize everything through the same
// direct-copy kernel except concatenation.
func copySymbols(aten string) (op, kernel string) {
	switch aten {
	case "cat":
		return "aten::cat", "CatArrayBatchedCopy"
	case "contiguous":
		return "aten::contiguous", "direct_copy_kernel"
	case "expand":
		return "aten::expand", "direct_copy_kernel"
	case "slice":
		return "aten::slice", "direct_copy_kernel"
	case "split":
		return "aten::split", "direct_copy_kernel"
	}
	return "aten::" + aten, "direct_copy_kernel"
}

// copyOp returns the layout op aten moving elems elements, and the
// kernel it launches.
func copyOp(aten string, elems int64) (Node, Kernel) {
	op, kernel := copySymbols(aten)
	return Node{Name: op, CPUNs: CPUPointwise},
		Kernel{Name: kernel, Class: ClassCopy, Cost: pointwiseCost(elems, 1, 0)}
}

// Copy builds a layout-materializing op (contiguous after permute, split
// with copy, cat): one copy kernel moving elems elements. The label is
// ignored.
func Copy(aten, label string, elems int64) *Node {
	return leaf(copyOp(aten, elems))
}

// Embedding builds aten::embedding: an index gather of (rows × hidden)
// from a (vocab × hidden) table, its kernel named after label.
func Embedding(label string, rows, hidden int64) *Node {
	elems := rows * hidden
	return wrap("aten::embedding", "aten::index_select", Kernel{
		Name:  "embedding_gather_" + label,
		Class: ClassEmbedding,
		Cost: kcost(0,
			float64(elems*elemSize+rows*8), // table rows + int64 indices
			float64(elems*elemSize)),
	})
}

// RoPE builds the rotary position embedding application for one
// projection (q or k): HF's eager rotate_half produces a cat plus two
// muls and an add — modeled as two fused-ish kernels plus the cat copy,
// matching observed kernel counts. The label is ignored.
func RoPE(label string, elems int64) *Node {
	b := &fan3{}
	b.kids[0], b.kernels[0] = copyOp("cat", elems)
	b.kids[1], b.kernels[1] = pointwiseOp("mul", elems, 2, 2)
	b.kids[2], b.kernels[2] = pointwiseOp("add", elems, 2, 1)
	return fan(&b.node, "apply_rotary_pos_emb", b.kids[:], b.children[:], b.kernels[:])
}

// FlashAttention builds a fused scaled-dot-product attention: one kernel
// computing softmax(QKᵀ/√d)·V without materializing the score matrix in
// HBM (IO-aware, per FlashAttention-2). Kernel count and memory traffic
// drop; FLOPs are conserved. The label is ignored.
func FlashAttention(label string, b, h, s, hd int64) *Node {
	qkFLOPs := float64(2 * float64(b*h) * float64(s) * float64(hd) * float64(s))
	avFLOPs := qkFLOPs
	softmaxFLOPs := float64(5 * float64(b*h*s*s))
	qkvBytes := float64(3 * b * h * s * hd * elemSize)
	outBytes := float64(b * h * s * hd * elemSize)
	return wrap("aten::scaled_dot_product_attention", "aten::_flash_attention_forward", Kernel{
		Name:  "flash_fwd_kernel",
		Class: ClassAttention,
		Cost:  kcost(qkFLOPs+avFLOPs+softmaxFLOPs, qkvBytes, outBytes),
	})
}

// DecodeFlashAttention builds the single-token flash-decoding kernel: one
// query row per head attends over a kvLen-deep cache. Entirely
// memory-bound — the whole K/V cache streams through the SMs once.
func DecodeFlashAttention(b, h, kvLen, hd int64) *Node {
	flops := 4 * float64(b*h) * float64(kvLen) * float64(hd)
	cacheBytes := float64(2 * b * h * kvLen * hd * elemSize)
	outBytes := float64(b * h * hd * elemSize)
	return wrap("aten::scaled_dot_product_attention", "aten::_flash_attention_forward", Kernel{
		Name:  "flash_fwd_splitkv_kernel",
		Class: ClassAttention,
		Cost:  kcost(flops, cacheBytes+outBytes, outBytes),
	})
}

// kcost is shorthand for a KernelCost literal.
func kcost(flops, read, write float64) hw.KernelCost {
	return hw.KernelCost{FLOPs: flops, BytesRead: read, BytesWrite: write}
}
