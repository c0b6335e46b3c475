package models

import (
	"fmt"

	"github.com/skipsim/skip/internal/ops"
)

// BuildDecodeStep constructs one autoregressive decode iteration for a
// decoder-only model: a single new token per sequence attends over a KV
// cache of kvLen prior positions. Where prefill "puts pressure on the
// compute resources, the decode stage puts pressure on the memory
// subsystems" (paper §II-A): every weight matrix is read for one token
// of work, and attention streams the whole cache.
func BuildDecodeStep(c *Config, batch, kvLen int64, attn AttnImpl) (*ops.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Kind != Decoder {
		return nil, fmt.Errorf("models: %s: decode step requires a decoder-only model", c.Name)
	}
	if batch <= 0 || kvLen <= 0 {
		return nil, fmt.Errorf("models: %s: batch (%d) and kvLen (%d) must be positive", c.Name, batch, kvLen)
	}
	g := &ops.Graph{Name: fmt.Sprintf("%s-decode-bs%d-kv%d-%s", c.Name, batch, kvLen, attn)}
	g.InputBytes = float64(batch * 8) // one token id per sequence
	g.OutputBytes = float64(batch * c.Vocab * 2)

	rows := batch // one token per sequence
	hiddenElems := rows * c.Hidden

	g.Nodes = append(g.Nodes, ops.Embedding("wte", rows, c.Hidden))
	if c.Position == Learned {
		g.Nodes = append(g.Nodes,
			ops.Embedding("wpe", rows, c.Hidden),
			ops.Pointwise("add", "emb_add_pos", hiddenElems, 2, 1),
		)
	}

	appendLayers(g, decodeLayer(c, batch, kvLen, attn), c.Layers)

	switch c.Norm {
	case RMSNorm:
		g.Nodes = append(g.Nodes, ops.RMSNorm("final", rows, c.Hidden))
	default:
		g.Nodes = append(g.Nodes, ops.LayerNorm("final", rows, c.Hidden))
	}
	g.Nodes = append(g.Nodes, ops.Linear("lm_head", batch, 1, c.Hidden, c.Vocab))
	return g, nil
}

// decodeLayer builds one decoder layer's decode-step operator block.
func decodeLayer(c *Config, batch, kvLen int64, attn AttnImpl) []*ops.Node {
	rows := batch // one token per sequence
	hiddenElems := rows * c.Hidden
	kvElems := rows * c.KVDim()
	h, hd := c.Heads, c.HeadDim()
	var layer []*ops.Node
	switch c.Norm {
	case RMSNorm:
		layer = append(layer, ops.RMSNorm("input", rows, c.Hidden))
	default:
		layer = append(layer, ops.LayerNorm("ln_1", rows, c.Hidden))
	}
	layer = append(layer,
		ops.Linear("q_proj", batch, 1, c.Hidden, c.Hidden),
		ops.Linear("k_proj", batch, 1, c.Hidden, c.KVDim()),
		ops.Linear("v_proj", batch, 1, c.Hidden, c.KVDim()),
	)
	if c.Position == RoPE {
		layer = append(layer, ops.RoPE("q", hiddenElems), ops.RoPE("k", kvElems))
	}
	// KV-cache append: the new K/V rows are written next to the
	// cached ones.
	layer = append(layer,
		ops.Copy("cat", "kv_append_k", kvElems),
		ops.Copy("cat", "kv_append_v", kvElems),
	)
	if attn == AttnFlash {
		layer = append(layer, ops.DecodeFlashAttention(batch, h, kvLen, hd))
	} else {
		scoreElems := batch * h * kvLen
		layer = append(layer,
			// q·Kᵀ over the cache: 1×hd · hd×kvLen per head.
			ops.BMM("qk_decode", batch*h, 1, hd, kvLen),
			ops.Pointwise("add", "causal_mask", scoreElems, 2, 1),
			ops.Softmax("attn_decode", batch*h, kvLen),
			ops.Pointwise("to", "softmax_cast", scoreElems, 1, 0),
			ops.BMM("av_decode", batch*h, 1, kvLen, hd),
			ops.Copy("contiguous", "context", hiddenElems),
		)
	}
	layer = append(layer,
		ops.Linear("o_proj", batch, 1, c.Hidden, c.Hidden),
		ops.Pointwise("add", "attn_residual", hiddenElems, 2, 1),
	)
	switch c.Norm {
	case RMSNorm:
		layer = append(layer, ops.RMSNorm("post_attn", rows, c.Hidden))
	default:
		layer = append(layer, ops.LayerNorm("ln_2", rows, c.Hidden))
	}
	interElems := rows * c.Intermediate
	switch c.Activation {
	case SiLUGate:
		layer = append(layer,
			ops.Linear("gate_proj", batch, 1, c.Hidden, c.Intermediate),
			ops.Linear("up_proj", batch, 1, c.Hidden, c.Intermediate),
			ops.SiLUMul("mlp", interElems),
			ops.Linear("down_proj", batch, 1, c.Intermediate, c.Hidden),
		)
	case GELUGate:
		layer = append(layer,
			ops.Linear("gate_proj", batch, 1, c.Hidden, c.Intermediate),
			ops.Linear("up_proj", batch, 1, c.Hidden, c.Intermediate),
			ops.GELU("mlp_gate", interElems),
			ops.Pointwise("mul", "gate_mul", interElems, 2, 1),
			ops.Linear("down_proj", batch, 1, c.Intermediate, c.Hidden),
		)
	case GELUNew:
		layer = append(layer,
			ops.Conv1D("c_fc", batch, 1, c.Hidden, c.Intermediate),
			ops.NewGELU("mlp", interElems),
			ops.Conv1D("c_proj_mlp", batch, 1, c.Intermediate, c.Hidden),
		)
	default:
		layer = append(layer,
			ops.Linear("mlp_in", batch, 1, c.Hidden, c.Intermediate),
			ops.GELU("mlp", interElems),
			ops.Linear("mlp_out", batch, 1, c.Intermediate, c.Hidden),
		)
	}
	layer = append(layer, ops.Pointwise("add", "mlp_residual", hiddenElems, 2, 1))
	return layer
}
