package models

import (
	"fmt"
	"slices"
	"strconv"

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
	g := &ops.Graph{Name: graphName(c, "-prefill-bs", batch, "-sl", seq, attn)}
	// Token ids (int64) and attention mask in, logits/pooled output out.
	g.InputBytes = float64(batch * seq * (8 + 8))
	switch c.Kind {
	case Encoder:
		buildEncoder(g, c, batch, seq, attn)
		g.OutputBytes = float64(batch * c.Hidden * 2) // pooled output
	case Decoder:
		buildDecoder(g, c, batch, seq, decoderLayer(c, batch, seq, attn))
		g.OutputBytes = float64(batch * c.Vocab * 2) // next-token logits
	}
	return g, nil
}

// graphName labels a graph as name + phase + batch + lenTag + length +
// "-" + attention, for example "gpt2-decode-bs8-kv512-eager".
func graphName(c *Config, phase string, batch int64, lenTag string, length int64, attn AttnImpl) string {
	var buf [80]byte
	b := append(buf[:0], c.Name...)
	b = append(b, phase...)
	b = strconv.AppendInt(b, batch, 10)
	b = append(b, lenTag...)
	b = strconv.AppendInt(b, length, 10)
	b = append(b, '-')
	b = append(b, attn.String()...)
	return string(b)
}

// appendLayers appends a layer's operator block to the graph once per
// layer, reserving room for the model's tail: the final norm and head
// (decoders) or the pooler (encoders), two nodes either way. Every
// repetition references the same nodes: nodes are immutable once built,
// so one block serves all layers and a graph costs one block of nodes,
// not one per layer. g.Repeat records the region, which lets the step
// oracle time the block once.
func appendLayers(g *ops.Graph, block []*ops.Node, layers int64) {
	const tail = 2
	g.Repeat = ops.Repeat{Start: len(g.Nodes), Len: len(block), Count: int(layers)}
	g.Nodes = slices.Grow(g.Nodes, len(block)*int(layers)+tail)
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
// its attention-mask broadcast copies. The layer is post-norm: a
// LayerNorm follows each residual.
func encoderLayer(c *Config, b, s int64, attn AttnImpl) []*ops.Node {
	h, hd := c.Heads, c.HeadDim()
	rows := b * s
	hiddenElems := rows * c.Hidden
	// 3 projections, at most 9 attention ops, 8 output and MLP ops.
	layer := make([]*ops.Node, 0, 20+batchMaskKernels(b))
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
	layer = append(layer, ops.Linear("attn_out", b, s, c.Hidden, c.Hidden))
	layer = appendFFN(layer, c, b, s, ops.LayerNorm("attn", rows, c.Hidden))
	layer = append(layer, ops.LayerNorm("mlp", rows, c.Hidden))
	return appendMaskBroadcast(layer, b, s)
}

// buildDecoder composes a decoder-only graph around one layer block:
// the token (and learned position) embeddings, the block once per
// layer, then the final norm and LM head. Prefill passes its prompt
// length as s; a decode step passes s = 1, one new token per sequence.
func buildDecoder(g *ops.Graph, c *Config, b, s int64, layer []*ops.Node) {
	g.Nodes = appendDecoderEmbeddings(g.Nodes, c, b*s)
	appendLayers(g, layer, c.Layers)
	g.Nodes = appendDecoderHead(g.Nodes, c, b, s)
}

// decoderLayer builds one decoder layer's prefill operator block,
// including its attention-mask broadcast copies.
func decoderLayer(c *Config, b, s int64, attn AttnImpl) []*ops.Node {
	h, hd, kvh := c.Heads, c.HeadDim(), c.KVHeads
	rows := b * s
	hiddenElems := rows * c.Hidden
	scoreElems := b * h * s * s
	// At most: norm, 4 projection ops, 2 RoPE, 14 attention ops, output
	// projection, residual, norm, 5 MLP ops, residual.
	layer := make([]*ops.Node, 0, 30+batchMaskKernels(b))
	layer = append(layer, norm(c, "input", "ln_1", rows))

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
		layer = appendLlamaQKV(layer, c, b, s)
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

	// Output projection, then the residual, norm and MLP tail.
	if gpt2Style {
		layer = append(layer, ops.Conv1D("c_proj", b, s, c.Hidden, c.Hidden))
	} else {
		layer = append(layer, ops.Linear("o_proj", b, s, c.Hidden, c.Hidden))
	}
	layer = appendFFN(layer, c, b, s, norm(c, "post_attn", "ln_2", rows))
	return appendMaskBroadcast(layer, b, s)
}

// appendDecoderEmbeddings appends the token embedding gather and, for
// learned positions (GPT-2), the position gather and its add.
func appendDecoderEmbeddings(nodes []*ops.Node, c *Config, rows int64) []*ops.Node {
	nodes = append(nodes, ops.Embedding("wte", rows, c.Hidden))
	if c.Position == Learned {
		nodes = append(nodes,
			ops.Embedding("wpe", rows, c.Hidden),
			ops.Pointwise("add", "emb_add_pos", rows*c.Hidden, 2, 1),
		)
	}
	return nodes
}

// appendDecoderHead appends the final norm and the LM head (next-token
// logits over the full vocab; the dominant single GEMM for large-vocab
// models) into the two tail slots appendLayers reserves.
func appendDecoderHead(nodes []*ops.Node, c *Config, b, s int64) []*ops.Node {
	return append(nodes,
		norm(c, "final", "final", b*s),
		ops.Linear("lm_head", b, s, c.Hidden, c.Vocab),
	)
}

// norm is the model's normalization node: an RMSNorm labeled rmsName
// (Llama family) or a LayerNorm labeled lnName.
func norm(c *Config, rmsName, lnName string, rows int64) *ops.Node {
	if c.Norm == RMSNorm {
		return ops.RMSNorm(rmsName, rows, c.Hidden)
	}
	return ops.LayerNorm(lnName, rows, c.Hidden)
}

// appendLlamaQKV appends Llama-style attention projections: three
// separate linears (GQA-shaped K/V) and, under RoPE, the q/k rotations.
func appendLlamaQKV(layer []*ops.Node, c *Config, b, s int64) []*ops.Node {
	rows := b * s
	layer = append(layer,
		ops.Linear("q_proj", b, s, c.Hidden, c.Hidden),
		ops.Linear("k_proj", b, s, c.Hidden, c.KVDim()),
		ops.Linear("v_proj", b, s, c.Hidden, c.KVDim()),
	)
	if c.Position == RoPE {
		layer = append(layer,
			ops.RoPE("q", rows*c.Hidden),
			ops.RoPE("k", rows*c.KVDim()),
		)
	}
	return layer
}

// appendFFN appends the tail that follows the attention output
// projection: the attention residual, the given pre-MLP norm, the MLP
// in the model's activation flavor, and the MLP residual.
func appendFFN(layer []*ops.Node, c *Config, b, s int64, mlpNorm *ops.Node) []*ops.Node {
	rows := b * s
	hiddenElems := rows * c.Hidden
	interElems := rows * c.Intermediate
	layer = append(layer, ops.Pointwise("add", "attn_residual", hiddenElems, 2, 1), mlpNorm)
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
	return append(layer, ops.Pointwise("add", "mlp_residual", hiddenElems, 2, 1))
}

// appendMaskBroadcast appends a prefill layer's attention-mask
// broadcast copies, whose count grows with the batch.
func appendMaskBroadcast(layer []*ops.Node, b, s int64) []*ops.Node {
	for i := 0; i < batchMaskKernels(b); i++ {
		layer = append(layer, ops.Copy("expand", "mask_bcast", b*s))
	}
	return layer
}
