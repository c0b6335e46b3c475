package models

import (
	"fmt"
	"slices"

	"github.com/skipsim/skip/internal/ops"
)

// AttnImpl selects the attention implementation, matching the execution
// modes the paper compares (§II-C).
type AttnImpl int

const (
	// AttnEager materializes scores: bmm → scale → mask → softmax → bmm,
	// plus the layout copies HF eager attention performs.
	AttnEager AttnImpl = iota
	// AttnFlash uses one fused FlashAttention-2 kernel.
	AttnFlash
)

func (a AttnImpl) String() string {
	if a == AttnFlash {
		return "flash_attention_2"
	}
	return "eager"
}

// BuildPrefill constructs the full prefill (TTFT) forward graph for the
// model at the given batch and sequence length. The operator and kernel
// sequences follow the HF transformers eager implementations closely
// enough that eager kernel counts land near the paper's measurements
// (GPT-2 ≈ 403 launches at BS=1, XLM-R ≈ 251; Fig. 7d).
func BuildPrefill(c *Config, batch, seq int64, attn AttnImpl) (*ops.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if batch <= 0 || seq <= 0 {
		return nil, fmt.Errorf("models: %s: batch (%d) and seq (%d) must be positive", c.Name, batch, seq)
	}
	if c.MaxSeq > 0 && seq > c.MaxSeq {
		return nil, fmt.Errorf("models: %s: seq %d exceeds max %d", c.Name, seq, c.MaxSeq)
	}
	g := &ops.Graph{Name: fmt.Sprintf("%s-prefill-bs%d-sl%d-%s", c.Name, batch, seq, attn)}
	// Token ids (int64) and attention mask in, logits/pooled output out.
	g.InputBytes = float64(batch * seq * (8 + 8))
	switch c.Kind {
	case Encoder:
		buildEncoder(g, c, batch, seq, attn)
		g.OutputBytes = float64(batch * c.Hidden * 2) // pooled output
	case Decoder:
		buildDecoder(g, c, batch, seq, attn)
		g.OutputBytes = float64(batch * c.Vocab * 2) // next-token logits
	}
	return g, nil
}

// appendLayers appends a layer's operator block to the graph once per
// layer. Every repetition references the same nodes: nodes are
// immutable once built, so one block serves all layers and a graph
// costs one block of nodes, not one per layer.
func appendLayers(g *ops.Graph, block []*ops.Node, layers int64) {
	g.Nodes = slices.Grow(g.Nodes, len(block)*int(layers))
	for i := int64(0); i < layers; i++ {
		g.Nodes = append(g.Nodes, block...)
	}
}

func buildEncoder(g *ops.Graph, c *Config, b, s int64, attn AttnImpl) {
	rows := b * s
	hiddenElems := rows * c.Hidden

	// Embeddings: word + position + token-type gathers, two adds, norm.
	g.Nodes = append(g.Nodes,
		ops.Embedding("word", rows, c.Hidden),
		ops.Embedding("position", rows, c.Hidden),
		ops.Embedding("token_type", rows, c.Hidden),
		ops.Pointwise("add", "emb_add_pos", hiddenElems, 2, 1),
		ops.Pointwise("add", "emb_add_type", hiddenElems, 2, 1),
		ops.LayerNorm("embeddings", rows, c.Hidden),
	)

	appendLayers(g, encoderLayer(c, b, s, attn), c.Layers)

	// Pooler head over [CLS].
	g.Nodes = append(g.Nodes,
		ops.Linear("pooler", b, 1, c.Hidden, c.Hidden),
		ops.Pointwise("tanh", "pooler_tanh", b*c.Hidden, 1, 6),
	)
}

// encoderLayer builds one encoder layer's operator block, including
// its attention-mask broadcast copies.
func encoderLayer(c *Config, b, s int64, attn AttnImpl) []*ops.Node {
	h, hd := c.Heads, c.HeadDim()
	rows := b * s
	hiddenElems := rows * c.Hidden
	var layer []*ops.Node
	// Self-attention projections.
	layer = append(layer,
		ops.Linear("attn_q", b, s, c.Hidden, c.Hidden),
		ops.Linear("attn_k", b, s, c.Hidden, c.Hidden),
		ops.Linear("attn_v", b, s, c.Hidden, c.Hidden),
	)
	if attn == AttnFlash {
		layer = append(layer, ops.FlashAttention("enc", b, h, s, hd))
	} else {
		scoreElems := b * h * s * s
		layer = append(layer,
			// transpose_for_scores materializations.
			ops.Copy("contiguous", "q_heads", hiddenElems),
			ops.Copy("contiguous", "k_heads", hiddenElems),
			ops.Copy("contiguous", "v_heads", hiddenElems),
			ops.BMM("qk", b*h, s, hd, s),
			ops.Pointwise("div", "attn_scale", scoreElems, 1, 1),
			ops.Pointwise("add", "attn_mask", scoreElems, 2, 1),
			ops.Softmax("attn", b*h*s, s),
			ops.BMM("av", b*h, s, s, hd),
			ops.Copy("contiguous", "context", hiddenElems),
		)
	}
	layer = append(layer,
		ops.Linear("attn_out", b, s, c.Hidden, c.Hidden),
		ops.Pointwise("add", "attn_residual", hiddenElems, 2, 1),
		ops.LayerNorm("attn", rows, c.Hidden),
		ops.Linear("mlp_in", b, s, c.Hidden, c.Intermediate),
		ops.GELU("mlp", rows*c.Intermediate),
		ops.Linear("mlp_out", b, s, c.Intermediate, c.Hidden),
		ops.Pointwise("add", "mlp_residual", hiddenElems, 2, 1),
		ops.LayerNorm("mlp", rows, c.Hidden),
	)
	for i := 0; i < batchMaskKernels(b); i++ {
		layer = append(layer,
			ops.Copy("expand", fmt.Sprintf("mask_bcast_%d", i), b*s))
	}
	return layer
}

func buildDecoder(g *ops.Graph, c *Config, b, s int64, attn AttnImpl) {
	// Embeddings.
	rows := b * s
	hiddenElems := rows * c.Hidden
	g.Nodes = append(g.Nodes, ops.Embedding("wte", rows, c.Hidden))
	if c.Position == Learned {
		g.Nodes = append(g.Nodes,
			ops.Embedding("wpe", rows, c.Hidden),
			ops.Pointwise("add", "emb_add_pos", hiddenElems, 2, 1),
		)
	}

	appendLayers(g, decoderLayer(c, b, s, attn), c.Layers)

	// Final norm + LM head (next-token logits over the full vocab; the
	// dominant single GEMM for large-vocab models).
	switch c.Norm {
	case RMSNorm:
		g.Nodes = append(g.Nodes, ops.RMSNorm("final", rows, c.Hidden))
	default:
		g.Nodes = append(g.Nodes, ops.LayerNorm("final", rows, c.Hidden))
	}
	g.Nodes = append(g.Nodes, ops.Linear("lm_head", b, s, c.Hidden, c.Vocab))
}

// decoderLayer builds one decoder layer's prefill operator block,
// including its attention-mask broadcast copies.
func decoderLayer(c *Config, b, s int64, attn AttnImpl) []*ops.Node {
	h, hd, kvh := c.Heads, c.HeadDim(), c.KVHeads
	rows := b * s
	hiddenElems := rows * c.Hidden
	kvElems := rows * c.KVDim()
	scoreElems := b * h * s * s
	var layer []*ops.Node

	// Pre-attention norm.
	switch c.Norm {
	case RMSNorm:
		layer = append(layer, ops.RMSNorm("input", rows, c.Hidden))
	default:
		layer = append(layer, ops.LayerNorm("ln_1", rows, c.Hidden))
	}

	// QKV projection: GPT-2 uses one fused Conv1D; Llama-family uses
	// three separate linears (GQA-shaped K/V).
	gpt2Style := c.Position == Learned
	if gpt2Style {
		layer = append(layer,
			ops.Conv1D("c_attn", b, s, c.Hidden, 3*c.Hidden),
			ops.Copy("split", "q_split", hiddenElems),
			ops.Copy("split", "k_split", hiddenElems),
			ops.Copy("split", "v_split", hiddenElems),
		)
	} else {
		layer = append(layer,
			ops.Linear("q_proj", b, s, c.Hidden, c.Hidden),
			ops.Linear("k_proj", b, s, c.Hidden, c.KVDim()),
			ops.Linear("v_proj", b, s, c.Hidden, c.KVDim()),
		)
	}
	if c.Position == RoPE {
		layer = append(layer,
			ops.RoPE("q", hiddenElems),
			ops.RoPE("k", kvElems),
		)
	}

	if attn == AttnFlash {
		layer = append(layer, ops.FlashAttention("dec", b, h, s, hd))
	} else {
		if gpt2Style {
			// Head-permute materializations.
			layer = append(layer,
				ops.Copy("contiguous", "q_heads", hiddenElems),
				ops.Copy("contiguous", "k_heads", hiddenElems),
				ops.Copy("contiguous", "v_heads", hiddenElems),
			)
		} else if kvh < h {
			// Grouped-query attention: repeat_kv expand copies.
			layer = append(layer,
				ops.Copy("expand", "repeat_k", rows*c.Hidden),
				ops.Copy("expand", "repeat_v", rows*c.Hidden),
			)
		}
		layer = append(layer, ops.BMM("qk", b*h, s, hd, s))
		if gpt2Style {
			// GPT-2's explicit causal masking dance: scale, bias slice,
			// mask value tensor, where, plus the attention-mask add.
			layer = append(layer,
				ops.Pointwise("div", "attn_scale", scoreElems, 1, 1),
				ops.Copy("slice", "causal_bias", scoreElems),
				ops.Pointwise("full_like", "mask_value", scoreElems, 0, 0),
				ops.Pointwise("where", "causal_where", scoreElems, 3, 1),
				ops.Pointwise("add", "attn_mask", scoreElems, 2, 1),
			)
		} else {
			// Llama-family: mask add folded into one op (scaling happens
			// in the matmul epilogue).
			layer = append(layer,
				ops.Pointwise("add", "causal_mask", scoreElems, 2, 1),
			)
		}
		layer = append(layer, ops.Softmax("attn", b*h*s, s))
		// Softmax runs in fp32; cast back to fp16.
		layer = append(layer, ops.Pointwise("to", "softmax_cast", scoreElems, 1, 0))
		layer = append(layer,
			ops.BMM("av", b*h, s, s, hd),
			ops.Copy("contiguous", "context", hiddenElems),
		)
		if gpt2Style {
			layer = append(layer, ops.Copy("contiguous", "merge_heads", hiddenElems))
		}
	}

	// Output projection + residual.
	if gpt2Style {
		layer = append(layer, ops.Conv1D("c_proj", b, s, c.Hidden, c.Hidden))
	} else {
		layer = append(layer, ops.Linear("o_proj", b, s, c.Hidden, c.Hidden))
	}
	layer = append(layer, ops.Pointwise("add", "attn_residual", hiddenElems, 2, 1))

	// Pre-MLP norm.
	switch c.Norm {
	case RMSNorm:
		layer = append(layer, ops.RMSNorm("post_attn", rows, c.Hidden))
	default:
		layer = append(layer, ops.LayerNorm("ln_2", rows, c.Hidden))
	}

	// MLP.
	interElems := rows * c.Intermediate
	switch c.Activation {
	case SiLUGate:
		layer = append(layer,
			ops.Linear("gate_proj", b, s, c.Hidden, c.Intermediate),
			ops.Linear("up_proj", b, s, c.Hidden, c.Intermediate),
			ops.SiLUMul("mlp", interElems),
			ops.Linear("down_proj", b, s, c.Intermediate, c.Hidden),
		)
	case GELUGate:
		layer = append(layer,
			ops.Linear("gate_proj", b, s, c.Hidden, c.Intermediate),
			ops.Linear("up_proj", b, s, c.Hidden, c.Intermediate),
			ops.GELU("mlp_gate", interElems),
			ops.Pointwise("mul", "gate_mul", interElems, 2, 1),
			ops.Linear("down_proj", b, s, c.Intermediate, c.Hidden),
		)
	case GELUNew:
		layer = append(layer,
			ops.Conv1D("c_fc", b, s, c.Hidden, c.Intermediate),
			ops.NewGELU("mlp", interElems),
			ops.Conv1D("c_proj_mlp", b, s, c.Intermediate, c.Hidden),
		)
	default:
		layer = append(layer,
			ops.Linear("mlp_in", b, s, c.Hidden, c.Intermediate),
			ops.GELU("mlp", interElems),
			ops.Linear("mlp_out", b, s, c.Intermediate, c.Hidden),
		)
	}
	layer = append(layer, ops.Pointwise("add", "mlp_residual", hiddenElems, 2, 1))
	for i := 0; i < batchMaskKernels(b); i++ {
		layer = append(layer, ops.Copy("expand", fmt.Sprintf("mask_bcast_%d", i), rows))
	}
	return layer
}
