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
// builds the graph and folds its mode's lowering (foldTime): eager and
// flash prefill time the shared layer block once and compose its span
// once per layer; compiled modes fold their kernel list. No miss runs
// the executor, and either way the latency equals a traced run's bit
// for bit: Run's TTFT, or the decode-step graph's eager walk.
//
// Each phase's latencies live in a latencyTable: one row per batch, one
// slot per bucket index, read without a lock. A hit costs one division
// and three atomic loads; a miss takes the model's mutex, so each key is
// computed once.
//
// A StepModel is safe for concurrent use. Its exported fields are
// read-only after construction; a model from SharedStepModel is used by
// every serving instance in the process with that configuration.
type StepModel struct {
	Platform *hw.Platform
	Model    *models.Config
	Mode     Mode
	// Bucket quantizes seq/kvLen for caching (tokens; default 64).
	Bucket int64

	prefill, decode latencyTable

	// mu serializes misses. It is held across a miss's engine run, so
	// each key is computed once; values are pure functions of the key,
	// so the order concurrent callers fill them in cannot change them.
	// It also guards parts and nodes: parts holds each decode batch's
	// KV-independent spans, and nodes is the reused buffer decode misses
	// build operators into.
	mu    sync.Mutex
	parts map[int64]decodeSpans
	nodes []*ops.Node
}

// decodeSpans are a decode step's KV-independent part spans at one
// batch and its bracket's input and output copy sizes.
type decodeSpans struct {
	head, pre, post, tail span
	in, out               float64
}

// latencyTable caches one phase's latencies by batch and bucket index,
// ceil(tokens/Bucket) − 1, which maps every key bucketTokens can produce
// (the MaxSeq-clamped prefill key included) to its own slot. A row is a
// list of fixed-size pages allocated on first touch, so memory follows
// the keys filled: a page per 64 touched buckets, plus one pointer per
// 64 buckets up to the row's highest. Readers take no lock. The row
// directory and each row's page list are immutable slices published
// through atomic pointers and replaced by a grown copy under the
// model's mutex; a slot is read only after its filled bit, set after
// the value is written, says the value is there. A zero latency is not
// ruled out, so emptiness is the bit, not the value.
type latencyTable struct {
	rows atomic.Pointer[[]*latencyRow]
	keys int // filled slots; guarded by StepModel.mu
}

// A latencyRow is one batch's page list, indexed by idx / pageSlots.
type latencyRow = atomic.Pointer[[]*latencyPage]

const pageSlots = 64

type latencyPage struct {
	filled atomic.Uint64 // bit i is set once vals[i] is written
	vals   [pageSlots]sim.Time
}

// at returns (*dir)[i], or nil when dir is not that long or the slot is
// empty.
func at[T any](dir *atomic.Pointer[[]*T], i int64) *T {
	if p := dir.Load(); p != nil && i < int64(len(*p)) {
		return (*p)[i]
	}
	return nil
}

// grow returns (*dir)[i], first publishing a copy of the directory with
// a new element there when it has none. A published directory is never
// written again, so lock-free readers see either copy whole. The caller
// holds StepModel.mu.
func grow[T any](dir *atomic.Pointer[[]*T], i int64) *T {
	if e := at(dir, i); e != nil {
		return e
	}
	var old []*T
	if p := dir.Load(); p != nil {
		old = *p
	}
	s := make([]*T, max(int64(len(old)), i+1))
	copy(s, old)
	s[i] = new(T)
	dir.Store(&s)
	return s[i]
}

// get returns the latency at (batch, idx) if it has been put.
func (t *latencyTable) get(batch, idx int64) (sim.Time, bool) {
	row := at(&t.rows, batch-1)
	if row == nil {
		return 0, false
	}
	pg := at(row, idx/pageSlots)
	if pg == nil || pg.filled.Load()&(1<<(idx%pageSlots)) == 0 {
		return 0, false
	}
	return pg.vals[idx%pageSlots], true
}

// put records a newly computed latency at (batch, idx) and counts the
// engine run. The caller holds StepModel.mu.
func (t *latencyTable) put(batch, idx int64, d sim.Time) {
	pg := grow(grow(&t.rows, batch-1), idx/pageSlots)
	pg.vals[idx%pageSlots] = d
	pg.filled.Store(pg.filled.Load() | 1<<(idx%pageSlots))
	t.keys++
	oracleRuns.Add(1)
}

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
	return &StepModel{Platform: p, Model: m, Mode: mode, Bucket: resolveBucket(bucket)}, nil
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
	idx := (seq - 1) / sm.Bucket
	if d, ok := sm.prefill.get(batch, idx); ok {
		return d, nil
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if d, ok := sm.prefill.get(batch, idx); ok {
		return d, nil // a concurrent miss filled it
	}
	d, err := sm.prefillTime(batch, sm.bucketTokens(seq, maxSeq))
	if err != nil {
		return 0, err
	}
	sm.prefill.put(batch, idx, d)
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
	idx := (kvLen - 1) / sm.Bucket
	if d, ok := sm.decode.get(batch, idx); ok {
		return d, nil
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if d, ok := sm.decode.get(batch, idx); ok {
		return d, nil // a concurrent miss filled it
	}
	d := sm.decodeTime(batch, sm.bucketTokens(kvLen, 0))
	sm.decode.put(batch, idx, d)
	return d, nil
}

// decodeTime computes one decode-step latency by partial evaluation:
// the batch's cached part spans around a fold of the attention alone.
// The caller holds mu and has checked DecodeStep's arguments.
func (sm *StepModel) decodeTime(batch, kvLen int64) sim.Time {
	fo, attn := newFolder(sm.Platform), sm.Mode.attention()
	fold := func(part models.DecodePart) span {
		sm.nodes = models.AppendDecodePart(sm.nodes[:0], sm.Model, part, batch, kvLen, attn)
		return fo.nodes(idle, sm.nodes, nil)
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

// prefillTime computes one prefill latency by folding the graph's
// lowering for the model's mode: eager and flash time the shared layer
// block once and compose its span once per layer; compiled modes fold
// their kernel list. The fold starts at t = 0 and ends in a synchronize
// that covers all stream work, so it equals Run's trace span, the TTFT.
func (sm *StepModel) prefillTime(batch, seq int64) (sim.Time, error) {
	g, err := models.BuildPrefill(sm.Model, batch, seq, sm.Mode.attention())
	if err != nil {
		return 0, err
	}
	l, err := lower(sm.Mode, g)
	if err != nil {
		return 0, err
	}
	return foldTime(sm.Platform, &l), nil
}

// CachedRuns reports how many distinct engine configurations have been
// executed (prefill + decode), a proxy for simulation cost.
func (sm *StepModel) CachedRuns() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.prefill.keys + sm.decode.keys
}
