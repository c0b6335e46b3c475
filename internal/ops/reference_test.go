package ops

import "fmt"

// The ref* constructors below are the original operator builders: one
// heap object per node, per Children slice and per Kernels slice, and
// fmt-built kernel names. TestConstructorsMatchReference holds the
// one-block constructors to them.

// refLinear builds aten::linear over a (b·s × k) input and (k × n) weight:
// the composite dispatches aten::t (a view) and aten::addmm, which
// launches one shape-specialized GEMM kernel.
func refLinear(label string, b, s, k, n int64) *Node {
	return &Node{
		Name:  "aten::linear",
		CPUNs: CPUComposite,
		Children: []*Node{
			{Name: "aten::t", CPUNs: CPUView},
			{
				Name:  "aten::addmm",
				CPUNs: CPUKernelOp,
				Kernels: []Kernel{{
					Name:  fmt.Sprintf("gemm_f16_%s_%dx%d", label, k, n),
					Class: ClassGemm,
					Cost:  gemmCost(b, s, k, n),
				}},
			},
		},
	}
}

// refConv1D builds the transformers.Conv1D used by GPT-2 (a transposed
// linear): aten::addmm directly under the module call.
func refConv1D(label string, b, s, k, n int64) *Node {
	return &Node{
		Name:  "aten::addmm",
		CPUNs: CPUKernelOp,
		Kernels: []Kernel{{
			Name:  fmt.Sprintf("gemm_f16_%s_%dx%d", label, k, n),
			Class: ClassGemm,
			Cost:  gemmCost(b, s, k, n),
		}},
	}
}

// refBMM builds aten::matmul → aten::bmm over (batch × m × k)·(batch × k × n).
func refBMM(label string, batch, m, k, n int64) *Node {
	return &Node{
		Name:  "aten::matmul",
		CPUNs: CPUComposite,
		Children: []*Node{{
			Name:  "aten::bmm",
			CPUNs: CPUKernelOp,
			Kernels: []Kernel{{
				Name:  fmt.Sprintf("bmm_f16_%s_%dx%d", label, k, n),
				Class: ClassGemm,
				Cost:  bmmCost(batch, m, k, n),
			}},
		}},
	}
}

// refSoftmax builds aten::softmax → aten::_softmax over scores of
// (rows × cols): one warp-parallel reduction kernel reading and writing
// the score matrix.
func refSoftmax(label string, rows, cols int64) *Node {
	_ = label // kernel symbols are functor-generic, as in real traces
	elems := rows * cols
	return &Node{
		Name:  "aten::softmax",
		CPUNs: CPUComposite,
		Children: []*Node{{
			Name:  "aten::_softmax",
			CPUNs: CPUKernelOp,
			Kernels: []Kernel{{
				Name:  "softmax_warp_forward",
				Class: ClassReduction,
				// Online softmax: one read for max/sum, one read+write
				// for normalization.
				Cost: kcost(float64(elems)*5, float64(2*elems*elemSize), float64(elems*elemSize)),
			}},
		}},
	}
}

// refLayerNorm builds aten::layer_norm → aten::native_layer_norm: one
// reduction kernel over (rows × hidden).
func refLayerNorm(label string, rows, hidden int64) *Node {
	_ = label
	elems := rows * hidden
	return &Node{
		Name:  "aten::layer_norm",
		CPUNs: CPUComposite,
		Children: []*Node{{
			Name:  "aten::native_layer_norm",
			CPUNs: CPUKernelOp,
			Kernels: []Kernel{{
				Name:  "vectorized_layer_norm_kernel",
				Class: ClassReduction,
				Cost:  kcost(float64(elems)*8, float64(2*elems*elemSize), float64(elems*elemSize)),
			}},
		}},
	}
}

// refRMSNorm builds the LlamaRMSNorm eager decomposition: pow/mean variance
// reduction then the scaled multiply — two kernels, as HF traces show.
func refRMSNorm(label string, rows, hidden int64) *Node {
	_ = label
	elems := rows * hidden
	return &Node{
		Name:  "aten::rms_norm",
		CPUNs: CPUComposite,
		Children: []*Node{
			{
				Name:  "aten::mean",
				CPUNs: CPUKernelOp,
				Kernels: []Kernel{{
					Name:  "reduce_variance_kernel",
					Class: ClassReduction,
					Cost:  kcost(float64(elems)*3, float64(elems*elemSize), float64(rows*4)),
				}},
			},
			{
				Name:  "aten::mul",
				CPUNs: CPUPointwise,
				Kernels: []Kernel{{
					Name:  "rms_norm_scale_kernel",
					Class: ClassElementwise,
					Cost:  pointwiseCost(elems, 2, 2),
				}},
			},
		},
	}
}

// refPointwise builds a single-kernel elementwise op (aten::add, aten::mul,
// aten::div, aten::tanh, …) over elems elements with ins input tensors.
func refPointwise(aten, kernelLabel string, elems int64, ins int, flopsPerElem float64) *Node {
	_ = kernelLabel
	return &Node{
		Name:  "aten::" + aten,
		CPUNs: CPUPointwise,
		Kernels: []Kernel{{
			Name:  "elementwise_" + aten,
			Class: ClassElementwise,
			Cost:  pointwiseCost(elems, ins, flopsPerElem),
		}},
	}
}

// refGELU builds aten::gelu (exact): one fused kernel.
func refGELU(label string, elems int64) *Node {
	n := refPointwise("gelu", "gelu_"+label, elems, 1, 8)
	n.Name = "aten::gelu"
	return n
}

// refNewGELU builds the GPT-2 "gelu_new" tanh approximation, which HF
// computes with a chain of seven eager pointwise ops (pow, mul, add, mul,
// tanh, add, mul) — the reason GPT-2 launches far more kernels per layer
// than BERT.
func refNewGELU(label string, elems int64) *Node {
	mk := func(aten, k string, ins int, fl float64) *Node {
		return refPointwise(aten, k+"_"+label, elems, ins, fl)
	}
	return &Node{
		Name:  "NewGELUActivation",
		CPUNs: CPUComposite,
		Children: []*Node{
			mk("pow", "pow3", 1, 2),
			mk("mul", "mul_c", 1, 1),
			mk("add", "add_x", 2, 1),
			mk("mul", "mul_s", 1, 1),
			mk("tanh", "tanh", 1, 6),
			mk("add", "add_1", 1, 1),
			mk("mul", "mul_half", 2, 2),
		},
	}
}

// refSiLUMul builds the Llama/Mistral gated MLP activation: aten::silu then
// aten::mul over the intermediate activations.
func refSiLUMul(label string, elems int64) *Node {
	return &Node{
		Name:  "aten::silu_mul",
		CPUNs: CPUComposite,
		Children: []*Node{
			refPointwise("silu", "silu_"+label, elems, 1, 5),
			refPointwise("mul", "gate_mul_"+label, elems, 2, 1),
		},
	}
}

// refCopy builds a layout-materializing op (contiguous after permute, split
// with copy, cat): one copy kernel moving elems elements.
func refCopy(aten, label string, elems int64) *Node {
	_ = label
	return &Node{
		Name:  "aten::" + aten,
		CPUNs: CPUPointwise,
		Kernels: []Kernel{{
			Name:  refCopyKernelName(aten),
			Class: ClassCopy,
			Cost:  pointwiseCost(elems, 1, 0),
		}},
	}
}

// refEmbedding builds aten::embedding: an index gather of (rows × hidden)
// from a (vocab × hidden) table.
func refEmbedding(label string, rows, hidden int64) *Node {
	_ = label
	elems := rows * hidden
	return &Node{
		Name:  "aten::embedding",
		CPUNs: CPUComposite,
		Children: []*Node{{
			Name:  "aten::index_select",
			CPUNs: CPUKernelOp,
			Kernels: []Kernel{{
				Name:  fmt.Sprintf("embedding_gather_%s", label),
				Class: ClassEmbedding,
				Cost: kcost(0,
					float64(elems*elemSize+rows*8), // table rows + int64 indices
					float64(elems*elemSize)),
			}},
		}},
	}
}

// refRoPE builds the rotary position embedding application for one
// projection (q or k): HF's eager rotate_half produces a cat plus two
// muls and an add — modeled as two fused-ish kernels plus the cat copy,
// matching observed kernel counts.
func refRoPE(label string, elems int64) *Node {
	return &Node{
		Name:  "apply_rotary_pos_emb",
		CPUNs: CPUComposite,
		Children: []*Node{
			refCopy("cat", "rope_rotate_"+label, elems),
			refPointwise("mul", "rope_cos_"+label, elems, 2, 2),
			refPointwise("add", "rope_add_"+label, elems, 2, 1),
		},
	}
}

// refFlashAttention builds a fused scaled-dot-product attention: one kernel
// computing softmax(QKᵀ/√d)·V without materializing the score matrix in
// HBM (IO-aware, per FlashAttention-2). Kernel count and memory traffic
// drop; FLOPs are conserved.
func refFlashAttention(label string, b, h, s, hd int64) *Node {
	_ = label
	qkFLOPs := 2 * float64(b*h) * float64(s) * float64(hd) * float64(s)
	avFLOPs := qkFLOPs
	softmaxFLOPs := 5 * float64(b*h*s*s)
	qkvBytes := float64(3 * b * h * s * hd * elemSize)
	outBytes := float64(b * h * s * hd * elemSize)
	return &Node{
		Name:  "aten::scaled_dot_product_attention",
		CPUNs: CPUComposite,
		Children: []*Node{{
			Name:  "aten::_flash_attention_forward",
			CPUNs: CPUKernelOp,
			Kernels: []Kernel{{
				Name:  "flash_fwd_kernel",
				Class: ClassAttention,
				Cost: kcost(qkFLOPs+avFLOPs+softmaxFLOPs,
					qkvBytes, outBytes),
			}},
		}},
	}
}

// refDecodeFlashAttention builds the single-token flash-decoding kernel: one
// query row per head attends over a kvLen-deep cache. Entirely
// memory-bound — the whole K/V cache streams through the SMs once.
func refDecodeFlashAttention(b, h, kvLen, hd int64) *Node {
	flops := 4 * float64(b*h) * float64(kvLen) * float64(hd)
	cacheBytes := float64(2 * b * h * kvLen * hd * elemSize)
	outBytes := float64(b * h * hd * elemSize)
	return &Node{
		Name:  "aten::scaled_dot_product_attention",
		CPUNs: CPUComposite,
		Children: []*Node{{
			Name:  "aten::_flash_attention_forward",
			CPUNs: CPUKernelOp,
			Kernels: []Kernel{{
				Name:  "flash_fwd_splitkv_kernel",
				Class: ClassAttention,
				Cost:  kcost(flops, cacheBytes+outBytes, outBytes),
			}},
		}},
	}
}

func refCopyKernelName(aten string) string {
	if aten == "cat" {
		return "CatArrayBatchedCopy"
	}
	return "direct_copy_kernel"
}
