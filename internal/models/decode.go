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
	g.InputBytes, g.OutputBytes = DecodeIOBytes(c, batch)

	buildDecoder(g, c, batch, 1, decodeLayer(c, batch, kvLen, attn))
	return g, nil
}

// DecodeIOBytes returns a decode step's host→device input, one int64
// token id per sequence, and its device→host output, fp16 next-token
// logits over the vocabulary.
func DecodeIOBytes(c *Config, batch int64) (in, out float64) {
	return float64(batch * 8), float64(batch * c.Vocab * 2)
}

// DecodePart names one stretch of a decode step's operator sequence.
// A step is Head, then Pre · Attention · Post once per layer, then
// Tail. Only Attention depends on the KV length; every other part
// depends on the batch alone.
type DecodePart int

const (
	// DecodeHead is the token (and learned position) embedding.
	DecodeHead DecodePart = iota
	// DecodePre is a layer's input norm, q/k/v projections, RoPE
	// rotations and KV-cache appends.
	DecodePre
	// DecodeAttention is a layer's attention over the KV cache: six
	// eager operators, or one fused flash kernel.
	DecodeAttention
	// DecodePost is a layer's output projection and its residual, norm
	// and MLP tail.
	DecodePost
	// DecodeTail is the final norm and the LM head.
	DecodeTail
)

// AppendDecodePart appends part's operators for a decode step of batch
// sequences over a kvLen-entry KV cache. Only DecodeAttention reads
// kvLen and attn. BuildDecodeStep composes its graph from these same
// parts; the caller has checked what BuildDecodeStep checks (a valid
// decoder-only model, positive batch and kvLen).
func AppendDecodePart(nodes []*ops.Node, c *Config, part DecodePart, batch, kvLen int64, attn AttnImpl) []*ops.Node {
	switch part {
	case DecodeHead:
		return appendDecoderEmbeddings(nodes, c, batch)
	case DecodePre:
		return appendDecodePre(nodes, c, batch)
	case DecodeAttention:
		return appendDecodeAttention(nodes, c, batch, kvLen, attn)
	case DecodePost:
		return appendDecodePost(nodes, c, batch)
	default: // DecodeTail
		return appendDecoderHead(nodes, c, batch, 1)
	}
}

// decodeLayer builds one decoder layer's decode-step operator block,
// Pre · Attention · Post. A decode step is
//
//	head · (pre · attention(kv) · post)^layers · tail
//
// so a caller that times the step can time the KV-independent parts
// once per batch and only the attention per KV length; the step oracle
// does (engine.StepModel). The block shares the norm, projection and
// MLP builders with decoderLayer, but projects with separate q/k/v/o
// linears for every family, GPT-2 included. GPT-2 prefill instead runs
// the fused c_attn/c_proj Conv1D plus its split and head-permute
// copies, so GPT-2 decode steps understate that family's launch count.
func decodeLayer(c *Config, batch, kvLen int64, attn AttnImpl) []*ops.Node {
	// At most: norm, 3 projections, 2 RoPE, 2 KV appends, 6 attention
	// ops, output projection, residual, norm, 5 MLP ops, residual.
	layer := make([]*ops.Node, 0, 23)
	layer = appendDecodePre(layer, c, batch)
	layer = appendDecodeAttention(layer, c, batch, kvLen, attn)
	return appendDecodePost(layer, c, batch)
}

// appendDecodePre appends a decode layer's input norm, q/k/v
// projections and RoPE rotations, then the KV-cache append that writes
// the new K/V rows next to the cached ones.
func appendDecodePre(layer []*ops.Node, c *Config, batch int64) []*ops.Node {
	kvElems := batch * c.KVDim() // one token per sequence
	layer = append(layer, norm(c, "input", "ln_1", batch))
	layer = appendLlamaQKV(layer, c, batch, 1)
	return append(layer,
		ops.Copy("cat", "kv_append_k", kvElems),
		ops.Copy("cat", "kv_append_v", kvElems),
	)
}

// appendDecodeAttention appends a decode layer's attention over the
// kvLen-entry cache: one fused flash kernel, or the eager q·Kᵀ, mask,
// softmax, cast, ·V and context copy.
func appendDecodeAttention(layer []*ops.Node, c *Config, batch, kvLen int64, attn AttnImpl) []*ops.Node {
	h, hd := c.Heads, c.HeadDim()
	if attn == AttnFlash {
		return append(layer, ops.DecodeFlashAttention(batch, h, kvLen, hd))
	}
	scoreElems := batch * h * kvLen
	return append(layer,
		// q·Kᵀ over the cache: 1×hd · hd×kvLen per head.
		ops.BMM("qk_decode", batch*h, 1, hd, kvLen),
		ops.Pointwise("add", "causal_mask", scoreElems, 2, 1),
		ops.Softmax("attn_decode", batch*h, kvLen),
		ops.Pointwise("to", "softmax_cast", scoreElems, 1, 0),
		ops.BMM("av_decode", batch*h, 1, kvLen, hd),
		ops.Copy("contiguous", "context", batch*c.Hidden),
	)
}

// appendDecodePost appends a decode layer's output projection and its
// residual, norm and MLP tail.
func appendDecodePost(layer []*ops.Node, c *Config, batch int64) []*ops.Node {
	layer = append(layer, ops.Linear("o_proj", batch, 1, c.Hidden, c.Hidden))
	return appendFFN(layer, c, batch, 1, norm(c, "post_attn", "ln_2", batch))
}
