package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
)

// StepModel is a cached iteration-latency oracle for serving
// simulators: per-(batch, seq) prefill latency and per-(batch, kvLen)
// decode-step latency, both measured by executing the operator graph on
// the platform model. Sequence and KV lengths are quantized to Bucket
// tokens before caching, so a long simulation touches each engine
// configuration once — the serving layer replays cached iteration
// latencies thousands of times while the engine runs tens of graphs.
// A miss runs the executor with a nil trace builder, so it records no
// trace and costs only the timing walk; the latencies equal those of
// traced runs (Run's TTFT) bit for bit.
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
// bucket) so latencies are monotone in the quantized length.
func (sm *StepModel) bucketTokens(tokens int64) int64 {
	b := sm.Bucket
	if tokens <= b {
		return b
	}
	return (tokens + b - 1) / b * b
}

// Prefill returns the latency of one prefill iteration of batch
// sequences at (bucketed) length seq.
func (sm *StepModel) Prefill(batch, seq int64) (sim.Time, error) {
	if batch <= 0 || seq <= 0 {
		return 0, fmt.Errorf("engine: prefill latency needs positive batch (%d) and seq (%d)", batch, seq)
	}
	key := stepKey{batch, sm.bucketTokens(seq)}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if t, ok := sm.prefill[key]; ok {
		return t, nil
	}
	// A trace-free run: every run starts at t = 0 and ends in a
	// synchronize that covers all stream work, so the host clock after
	// the run equals Run's trace span, the TTFT.
	ex, err := runPrefill(Request{
		Platform: sm.Platform, Model: sm.Model,
		Batch: batch, Seq: key.tokens, Mode: sm.Mode,
	}, nil)
	if err != nil {
		return 0, err
	}
	d := ex.rt.CPU.Now()
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
	key := stepKey{batch, sm.bucketTokens(kvLen)}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if t, ok := sm.decode[key]; ok {
		return t, nil
	}
	g, err := models.BuildDecodeStep(sm.Model, batch, key.tokens, sm.Mode.attention())
	if err != nil {
		return 0, err
	}
	ex := newExecutor(Request{Platform: sm.Platform, Model: sm.Model, Batch: batch, Seq: key.tokens, Mode: sm.Mode}, nil)
	ex.runEager(g)
	d := ex.rt.CPU.Now()
	oracleRuns.Add(1)
	sm.decode[key] = d
	return d, nil
}

// CachedRuns reports how many distinct engine configurations have been
// executed (prefill + decode), a proxy for simulation cost.
func (sm *StepModel) CachedRuns() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.prefill) + len(sm.decode)
}
