package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/sim"
)

// StepModel is a cached iteration-latency oracle for serving
// simulators: per-(batch, seq) prefill latency and per-(batch, kvLen)
// decode-step latency of the operator graph on the platform model.
// Sequence and KV lengths are quantized to Bucket tokens before
// caching, so a long simulation touches each engine configuration once
// — the serving layer replays cached iteration latencies thousands of
// times while the engine times tens of graphs.
//
// A decode miss never builds the graph. The executor's eager walk only
// adds and takes maxima, so every stretch of it has an exact max-plus
// span (fold.go), and spans compose associatively. A decode step is
//
//	bracket(head · (pre · attention(kv) · post)^layers · tail)
//
// in models.DecodePart's terms, with bracket the input copy,
// synchronize and output copy around it. Only the attention depends on
// the KV length. The model keeps the head, pre, post and tail spans
// and the bracket's copy sizes per batch, so a miss at a batch it has
// seen folds only the attention's operators (six eager, one flash);
// the first miss at a batch folds the other parts once. A prefill miss
// builds the graph: eager and flash prefill fold it (eagerTime),
// timing the shared layer block once and composing its span once per
// layer; compiled-mode prefill lowers it first and runs the executor
// with a nil trace builder. Either way the latency equals a traced
// run's bit for bit: Run's TTFT, or the decode-step graph's eager walk.
//
// A StepModel is safe for concurrent use. Its fields are read-only after
// construction; a model from SharedStepModel is used by every serving
// instance in the process with that configuration.
type StepModel struct {
	Platform *hw.Platform
	Model    *models.Config
	Mode     Mode
	// Bucket quantizes seq/kvLen for caching (tokens; default 64).
	Bucket int64

	// mu guards the caches. It is held across a miss's engine run, so
	// each key is computed once; values are pure functions of the key,
	// so the order concurrent callers fill them in cannot change them.
	mu      sync.Mutex
	prefill map[stepKey]sim.Time
	decode  map[stepKey]sim.Time
	// parts holds each decode batch's KV-independent spans; nodes is
	// the reused buffer decode misses build operators into.
	parts map[int64]decodeSpans
	nodes []*ops.Node
}

// decodeSpans are a decode step's KV-independent part spans at one
// batch and its bracket's input and output copy sizes.
type decodeSpans struct {
	head, pre, post, tail span
	in, out               float64
}

type stepKey struct{ batch, tokens int64 }

// NewStepModel validates the configuration and returns an empty cache.
// bucket <= 0 selects the 64-token default.
func NewStepModel(p *hw.Platform, m *models.Config, mode Mode, bucket int64) (*StepModel, error) {
	if p == nil || m == nil {
		return nil, fmt.Errorf("engine: step model needs a platform and a model")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &StepModel{
		Platform: p, Model: m, Mode: mode, Bucket: resolveBucket(bucket),
		prefill: make(map[stepKey]sim.Time),
		decode:  make(map[stepKey]sim.Time),
	}, nil
}

// resolveBucket applies the 64-token default to bucket <= 0.
func resolveBucket(bucket int64) int64 {
	if bucket <= 0 {
		return 64
	}
	return bucket
}

// sharedKey identifies a shared step model by value: two platforms
// with the same name but different parameters get different oracles,
// and a caller mutating its structs later cannot alias an entry.
type sharedKey struct {
	platform hw.Platform
	model    models.Config
	mode     Mode
	bucket   int64
}

var (
	sharedMu     sync.Mutex
	sharedModels = make(map[sharedKey]*StepModel)
)

// SharedStepModel returns the process-wide step model for this
// configuration, creating it on first use. Every caller with equal
// platform, model, mode and (resolved) bucket values gets the same
// model, so an engine configuration is executed once per process, not
// once per serving instance. The entry holds private copies of p and m.
// Entries live for the life of the process.
func SharedStepModel(p *hw.Platform, m *models.Config, mode Mode, bucket int64) (*StepModel, error) {
	if p == nil || m == nil {
		return NewStepModel(p, m, mode, bucket)
	}
	key := sharedKey{platform: *p, model: *m, mode: mode, bucket: resolveBucket(bucket)}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sm, ok := sharedModels[key]; ok {
		return sm, nil
	}
	sm, err := NewStepModel(&key.platform, &key.model, mode, key.bucket)
	if err != nil {
		return nil, err
	}
	sharedModels[key] = sm
	return sm, nil
}

// oracleRuns counts engine runs performed by every step model in the
// process (cache misses).
var oracleRuns atomic.Int64

// OracleRuns reports how many engine runs step models have performed
// in this process so far. The count is process-wide: deltas taken
// around one call include misses from any concurrent caller.
func OracleRuns() int64 { return oracleRuns.Load() }

// bucketTokens rounds tokens up to the bucket boundary (minimum one
// bucket) so latencies are monotone in the quantized length. A positive
// limit clamps the result: Prefill passes the model's MaxSeq, because
// rounding a legal length up past it (XLM-R's 513 to 576 against its
// 514) would build a graph BuildPrefill rejects. The clamp keeps keys
// monotone and leaves every key at or below the limit unchanged. Decode
// keys are not clamped: a decode graph has no length limit, so keys
// past MaxSeq were always valid and keep their values.
func (sm *StepModel) bucketTokens(tokens, limit int64) int64 {
	b := sm.Bucket
	key := b
	if tokens > b {
		key = (tokens + b - 1) / b * b
	}
	if limit > 0 && key > limit {
		return limit
	}
	return key
}

// Prefill returns the latency of one prefill iteration of batch
// sequences at (bucketed) length seq.
func (sm *StepModel) Prefill(batch, seq int64) (sim.Time, error) {
	if batch <= 0 || seq <= 0 {
		return 0, fmt.Errorf("engine: prefill latency needs positive batch (%d) and seq (%d)", batch, seq)
	}
	maxSeq := sm.Model.MaxSeq
	if maxSeq > 0 && seq > maxSeq {
		return 0, fmt.Errorf("engine: %s: prefill seq %d exceeds max %d", sm.Model.Name, seq, maxSeq)
	}
	key := stepKey{batch, sm.bucketTokens(seq, maxSeq)}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if t, ok := sm.prefill[key]; ok {
		return t, nil
	}
	d, err := sm.prefillTime(batch, key.tokens)
	if err != nil {
		return 0, err
	}
	oracleRuns.Add(1)
	sm.prefill[key] = d
	return d, nil
}

// DecodeStep returns the latency of one decode iteration: batch
// sequences each producing one token against a (bucketed) kvLen-entry
// KV cache. Decode executes eagerly (with fused attention for the
// flash/max-autotune modes), matching RunGenerate's regime.
func (sm *StepModel) DecodeStep(batch, kvLen int64) (sim.Time, error) {
	if batch <= 0 || kvLen <= 0 {
		return 0, fmt.Errorf("engine: decode latency needs positive batch (%d) and kvLen (%d)", batch, kvLen)
	}
	if sm.Model.Kind != models.Decoder {
		return 0, fmt.Errorf("engine: decode step requires a decoder-only model, %s is %v", sm.Model.Name, sm.Model.Kind)
	}
	key := stepKey{batch, sm.bucketTokens(kvLen, 0)}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if t, ok := sm.decode[key]; ok {
		return t, nil
	}
	d := sm.decodeTime(batch, key.tokens)
	oracleRuns.Add(1)
	sm.decode[key] = d
	return d, nil
}

// decodeTime computes one decode-step latency by partial evaluation:
// the batch's cached part spans around a fold of the attention alone.
// The caller holds mu and has checked DecodeStep's arguments.
func (sm *StepModel) decodeTime(batch, kvLen int64) sim.Time {
	fo, attn := newFolder(sm.Platform), sm.Mode.attention()
	fold := func(part models.DecodePart) span {
		sm.nodes = models.AppendDecodePart(sm.nodes[:0], sm.Model, part, batch, kvLen, attn)
		return fo.nodes(idle, sm.nodes)
	}
	ps, ok := sm.parts[batch]
	if !ok {
		if sm.parts == nil {
			// The largest part, a GELU-gated post, is 9 operators.
			sm.parts, sm.nodes = make(map[int64]decodeSpans), make([]*ops.Node, 0, 16)
		}
		ps = decodeSpans{
			head: fold(models.DecodeHead),
			pre:  fold(models.DecodePre),
			post: fold(models.DecodePost),
			tail: fold(models.DecodeTail),
		}
		ps.in, ps.out = models.DecodeIOBytes(sm.Model, batch)
		sm.parts[batch] = ps
	}
	layer := ps.pre.then(fold(models.DecodeAttention)).then(ps.post)
	s := ps.head
	for i := int64(0); i < sm.Model.Layers; i++ {
		s = s.then(layer)
	}
	return fo.bracket(s.then(ps.tail), ps.in, ps.out)
}

// prefillTime computes one prefill latency. Eager modes fold the graph
// (eagerTime); compiled modes lower it first, so they run the executor
// with no trace builder. Every run starts at t = 0 and ends in a
// synchronize that covers all stream work, so the host clock after the
// run equals Run's trace span, the TTFT.
func (sm *StepModel) prefillTime(batch, seq int64) (sim.Time, error) {
	g, err := models.BuildPrefill(sm.Model, batch, seq, sm.Mode.attention())
	if err != nil {
		return 0, err
	}
	if sm.Mode == Eager || sm.Mode == Flash {
		return eagerTime(sm.Platform, g), nil
	}
	ex := newExecutor(Request{Platform: sm.Platform, Model: sm.Model, Batch: batch, Seq: seq, Mode: sm.Mode}, nil)
	if err := ex.run(g); err != nil {
		return 0, err
	}
	return ex.rt.CPU.Now(), nil
}

// CachedRuns reports how many distinct engine configurations have been
// executed (prefill + decode), a proxy for simulation cost.
func (sm *StepModel) CachedRuns() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.prefill) + len(sm.decode)
}
