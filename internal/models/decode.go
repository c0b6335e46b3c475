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
	g := &ops.Graph{Name: graphName(c, "-decode-bs", batch, "-kv", kvLen, attn)}
	g.InputBytes = float64(batch * 8) // one token id per sequence
	g.OutputBytes = float64(batch * c.Vocab * 2)

	buildDecoder(g, c, batch, 1, decodeLayer(c, batch, kvLen, attn))
	return g, nil
}

// decodeLayer builds one decoder layer's decode-step operator block.
// It shares the norm, projection and MLP builders with decoderLayer,
// but projects with separate q/k/v/o linears for every family, GPT-2
// included. GPT-2 prefill instead runs the fused c_attn/c_proj Conv1D
// plus its split and head-permute copies, so GPT-2 decode steps
// understate that family's launch count.
func decodeLayer(c *Config, batch, kvLen int64, attn AttnImpl) []*ops.Node {
	rows := batch // one token per sequence
	hiddenElems := rows * c.Hidden
	kvElems := rows * c.KVDim()
	h, hd := c.Heads, c.HeadDim()
	// At most: norm, 3 projections, 2 RoPE, 2 KV appends, 6 attention
	// ops, output projection, residual, norm, 5 MLP ops, residual.
	layer := make([]*ops.Node, 0, 23)
	layer = append(layer, norm(c, "input", "ln_1", rows))
	layer = appendLlamaQKV(layer, c, batch, 1)
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
	layer = append(layer, ops.Linear("o_proj", batch, 1, c.Hidden, c.Hidden))
	return appendFFN(layer, c, batch, 1, norm(c, "post_attn", "ln_2", rows))
}
