// Package ops models PyTorch ATen operators as trees of host-side nodes
// that launch GPU kernels — the structure SKIP's dependency graphs
// recover from traces. Each node carries a host dispatch cost (calibrated
// at the Intel reference platform and scaled by CPU single-thread score at
// execution time) and an ordered list of kernels with roofline cost
// descriptors.
//
// Kernel names follow the convention <class>_f16_<shape-signature>, which
// mirrors how shape-specialized CUDA kernels recur identically across
// transformer layers — the repetition the paper's proximity-score miner
// exploits.
package ops

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/tensor"
)

// KernelClass categorizes a kernel for fusion passes and analysis.
type KernelClass int

const (
	// ClassGemm is a dense matrix multiply (tensor-core bound).
	ClassGemm KernelClass = iota
	// ClassAttention is a fused attention kernel (FlashAttention).
	ClassAttention
	// ClassElementwise is a pointwise map (add, mul, gelu, copies feed
	// through here for fusion eligibility).
	ClassElementwise
	// ClassReduction is a normalization/softmax-style reduction.
	ClassReduction
	// ClassCopy is a layout change (permute/contiguous/split/cat).
	ClassCopy
	// ClassEmbedding is a gather.
	ClassEmbedding
)

// String names the class.
func (c KernelClass) String() string {
	switch c {
	case ClassGemm:
		return "gemm"
	case ClassAttention:
		return "attention"
	case ClassElementwise:
		return "elementwise"
	case ClassReduction:
		return "reduction"
	case ClassCopy:
		return "copy"
	case ClassEmbedding:
		return "embedding"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Fusible reports whether a kernel of this class may be merged into a
// pointwise fusion group by the compile pass: pointwise maps and layout
// copies can; GEMMs, attention, reductions and gathers cannot (Triton
// fuses epilogues in reality, but the paper's accounting — and ours —
// is at whole-kernel granularity).
func (c KernelClass) Fusible() bool {
	return c == ClassElementwise || c == ClassCopy
}

// Kernel describes one GPU kernel launch.
type Kernel struct {
	Name  string
	Class KernelClass
	Cost  hw.KernelCost
}

// Node is one ATen operator: host-side dispatch work, nested child
// operators, and the kernels the operator launches after its children
// complete (the common ATen pattern: setup children — views, transposes —
// then the compute launch).
//
// Nodes are immutable once built: the executor, the fusion passes and
// every other reader only read them. A graph may therefore reference
// one node at several positions (the model builders share one layer
// block across all layers), and a node must never be modified in place.
type Node struct {
	// Name is the ATen symbol, e.g. "aten::linear".
	Name string
	// CPUNs is the host dispatch cost of this node itself, in
	// Intel-reference nanoseconds (framework overhead: Python binding,
	// dispatcher, shape checks, allocator).
	CPUNs float64
	// Children are nested operators, executed in order.
	Children []*Node
	// Kernels are launched by this node after its children.
	Kernels []Kernel
}

// Host dispatch cost tiers (Intel-reference ns). Calibrated so the
// per-kernel CPU cadence — operator framework time plus the launch call —
// lands near the ~5-6µs/kernel a tuned PyTorch eager loop achieves on a
// modern x86 server, which in turn places the encoder CPU→GPU-bound
// transition near BS=8 on the LC systems (Fig. 6).
const (
	// CPUComposite is a user-facing composite op (aten::linear,
	// aten::layer_norm): HF Python module call, dispatcher, shape
	// checks, allocator.
	CPUComposite = 16500.0
	// CPUKernelOp is a mid-level op that launches a kernel
	// (aten::addmm, aten::bmm, aten::_softmax).
	CPUKernelOp = 12000.0
	// CPUPointwise is a simple elementwise op (aten::add, aten::mul).
	CPUPointwise = 10000.0
	// CPUView is a metadata-only op (aten::view, aten::transpose as
	// view): no kernel.
	CPUView = 5000.0
)

// Walk visits the tree in execution order, calling visit for every node.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// FlattenKernels returns every kernel in execution order.
func (n *Node) FlattenKernels() []Kernel {
	var out []Kernel
	n.Walk(func(m *Node) { out = append(out, m.Kernels...) })
	return out
}

// CountNodes returns the number of operator nodes in the tree.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) { count++ })
	return count
}

// CountKernels returns the number of kernels the tree launches.
func (n *Node) CountKernels() int {
	count := 0
	n.Walk(func(m *Node) { count += len(m.Kernels) })
	return count
}

// TotalCost sums kernel costs over the tree.
func (n *Node) TotalCost() hw.KernelCost {
	var total hw.KernelCost
	n.Walk(func(m *Node) {
		for _, k := range m.Kernels {
			total = total.Add(k.Cost)
		}
	})
	return total
}

// Graph is the ordered top-level operator list of one forward pass, the
// unit the executor runs and SKIP treats as "parent ATen operators".
// Its nodes are immutable once built, and one node may appear at
// several positions of Nodes (every layer of a model references the
// same layer block); readers treat each position as one operator
// execution.
type Graph struct {
	// Name labels the graph (model + phase).
	Name string
	// Nodes are the top-level parent operators in execution order.
	Nodes []*Node
	// InputBytes is the host→device input volume (tokens, masks) moved
	// before execution on non-unified-memory platforms.
	InputBytes float64
	// OutputBytes is the device→host result volume.
	OutputBytes float64
}

// KernelCount sums kernels over all parent nodes.
func (g *Graph) KernelCount() int {
	total := 0
	for _, n := range g.Nodes {
		total += n.CountKernels()
	}
	return total
}

// NodeCount sums operator nodes over all parents.
func (g *Graph) NodeCount() int {
	total := 0
	for _, n := range g.Nodes {
		total += n.CountNodes()
	}
	return total
}

// FlattenKernels returns the graph's full kernel sequence.
func (g *Graph) FlattenKernels() []Kernel {
	var out []Kernel
	for _, n := range g.Nodes {
		out = append(out, n.FlattenKernels()...)
	}
	return out
}

// TotalCost sums kernel costs across the graph.
func (g *Graph) TotalCost() hw.KernelCost {
	var total hw.KernelCost
	for _, n := range g.Nodes {
		total = total.Add(n.TotalCost())
	}
	return total
}

const elemSize = 2 // FP16 evaluation precision throughout (paper §IV-B)

// gemmCost computes the roofline cost of a (b·m × k) · (k × n) matmul:
// activations and weights read once, output written once.
func gemmCost(b, m, k, n int64) hw.KernelCost {
	return hw.KernelCost{
		FLOPs:      tensor.MatmulFLOPs(b, m, k, n),
		BytesRead:  float64((b*m*k + k*n) * elemSize),
		BytesWrite: float64(b * m * n * elemSize),
		Rows:       float64(b * m),
	}
}

// bmmCost is a batched matmul where both operands are activations.
func bmmCost(batch, m, k, n int64) hw.KernelCost {
	return hw.KernelCost{
		FLOPs:      tensor.MatmulFLOPs(batch, m, k, n),
		BytesRead:  float64(batch * (m*k + k*n) * elemSize),
		BytesWrite: float64(batch * m * n * elemSize),
		Rows:       float64(batch * m),
	}
}

// pointwiseCost reads inputs ins times and writes once over elems.
func pointwiseCost(elems int64, ins int, flopsPerElem float64) hw.KernelCost {
	return hw.KernelCost{
		FLOPs:      tensor.ElementwiseFLOPs(elems, flopsPerElem),
		BytesRead:  float64(int64(ins) * elems * elemSize),
		BytesWrite: float64(elems * elemSize),
	}
}
