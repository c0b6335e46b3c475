// Package serve simulates an inference server in front of the platform
// simulator: requests arrive over time, a batching policy groups them,
// and batches execute with the engine's simulated latencies. This
// operationalizes the paper's §II-A discussion — "batch size selection
// profoundly impacts the user experience", large batches buy throughput
// at the cost of individual latency, and serving systems (Orca, vLLM)
// chase BS=1-like latency at high throughput — and its contribution 5:
// operating inside the balanced batch region instead of chasing GPU
// saturation.
//
// Two simulator generations coexist:
//
//   - StaticBatch / GreedyBatch: the legacy prefill-only model. Whole
//     batches run to completion; TTFT is queueing plus batched prefill.
//   - ContinuousBatch / ChunkedPrefill: a discrete-event simulator on
//     sim.Calendar with iteration-level (Orca-style) scheduling, a
//     KV-cache capacity model gating admission, and decode-phase
//     execution — see continuous.go.
//
// Both generations price their iterations through the process-wide
// engine.StepModel oracle: the legacy walk one prefill per batch, the
// continuous simulator prefill chunks and decode steps.
//
// A continuous Instance can also share one calendar with others as a
// fleet member (internal/cluster). A request that moves between
// instances is one Handoff record: a prefill-only instance
// (SetHandoff) hands every finished prefill away to Resume elsewhere,
// and Kill evicts in-flight requests for AcceptRequeued.
package serve

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/kvcache"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
)

// Request is one inference request arriving at the server.
type Request struct {
	ID      int
	Arrival sim.Time
	// PromptLen is the request's input length in tokens. Zero falls back
	// to Config.Seq (every legacy caller's behavior).
	PromptLen int64
	// OutputLen is how many tokens the request generates. Zero falls
	// back to Config.DefaultOutputLen (itself defaulting to 1). The
	// legacy prefill-only policies ignore it.
	OutputLen int64
	// SessionID groups requests belonging to one conversation or agent
	// trajectory so a session-affinity router can pin them to one
	// instance (KV reuse locality). Zero means no session.
	SessionID int64
}

// Policy selects how the server forms batches.
type Policy int

const (
	// StaticBatch waits until exactly BatchSize requests are queued (or
	// MaxWait expires for a partial batch), then runs them together —
	// the throughput-oriented configuration of the paper's large-batch
	// discussion. Legacy prefill-only model.
	StaticBatch Policy = iota
	// GreedyBatch takes whatever is queued (up to MaxBatch) the moment
	// the device frees — batch-level continuous batching. Legacy
	// prefill-only model.
	GreedyBatch
	// ContinuousBatch schedules at iteration granularity (Orca-style):
	// new requests join the running batch between decode steps, finished
	// requests leave immediately, and a KV-cache capacity model gates
	// admission. Simulated on the discrete-event calendar.
	ContinuousBatch
	// ChunkedPrefill is ContinuousBatch with long prompts split into
	// PrefillChunk-token chunks so prefill work interleaves with decode
	// steps instead of stalling them (Sarathi/vLLM-style).
	ChunkedPrefill
)

func (p Policy) String() string {
	switch p {
	case StaticBatch:
		return "static"
	case GreedyBatch:
		return "greedy"
	case ContinuousBatch:
		return "continuous"
	case ChunkedPrefill:
		return "chunked-prefill"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a serve.policy name to a Policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "static":
		return StaticBatch, nil
	case "greedy":
		return GreedyBatch, nil
	case "continuous":
		return ContinuousBatch, nil
	case "chunked", "chunked-prefill":
		return ChunkedPrefill, nil
	}
	return 0, fmt.Errorf("serve: unknown policy %q (have static|greedy|continuous|chunked-prefill)", name)
}

// Config parameterizes a serving simulation.
type Config struct {
	Platform *hw.Platform
	Model    *models.Config
	// Seq is the default prompt length for requests with PromptLen == 0.
	Seq    int64
	Mode   engine.Mode
	Policy Policy
	// BatchSize is the target batch for StaticBatch.
	BatchSize int
	// MaxBatch caps GreedyBatch group size and the ContinuousBatch /
	// ChunkedPrefill running-set size.
	MaxBatch int
	// MaxWait bounds how long StaticBatch holds a partial batch.
	MaxWait sim.Time

	// Continuous-batching knobs (ContinuousBatch / ChunkedPrefill).

	// DefaultOutputLen is the generation length for requests with
	// OutputLen == 0 (default 1: prefill-equivalent).
	DefaultOutputLen int64
	// PrefillChunk is the chunk size (tokens) for ChunkedPrefill
	// (default 512).
	PrefillChunk int64
	// KVMemoryUtil is the fraction of GPU HBM usable for weights + KV
	// cache (default 0.9, vLLM's gpu_memory_utilization).
	KVMemoryUtil float64
	// KVCapacityBytes overrides the derived KV budget when positive
	// (tests use it to force tiny caches).
	KVCapacityBytes float64
	// TTFTSLO is the time-to-first-token service-level objective used
	// for goodput accounting (0 disables: goodput == throughput).
	TTFTSLO sim.Time
	// AbandonAfter drops requests never admitted within this window of
	// arrival (0: never). Admission cancels the request's calendar
	// timer for good — a request that started streaming output is
	// served to completion even if KV pressure later preempts and
	// recomputes it.
	AbandonAfter sim.Time
	// LatencyBucket quantizes (seq, kvLen) when caching engine latencies
	// (default 64 tokens). Coarser buckets run faster, finer buckets are
	// more precise.
	LatencyBucket int64
	// KVCache, when set, gives the continuous policies a block-level
	// prefix cache (see internal/kvcache): session-bearing requests pin
	// their prompt-prefix blocks at admission, cached blocks grant
	// prefill reuse credit (shortening TTFT and the admission
	// footprint), and host-tier restores are priced through the
	// platform's interconnect model. The config is shared across a
	// fleet's instances but each instance owns a private cache. Nil —
	// the default — leaves serving exactly as before.
	KVCache *KVCacheConfig
	// Observer, when set, receives lifecycle events (arrival, admission,
	// preemption, first token, completion, abandonment) from the
	// continuous policies as they happen. The legacy prefill-only
	// policies do not emit events.
	Observer Observer
	// StateWindow, when positive, turns on the state feed the windowed
	// timeline aggregator reads: an EventStateSample (queue depth,
	// running batch, KV fraction, cumulative cache counters) to the
	// observer at every scheduling event, and the Stats
	// KVOccupancy/QueueDepth series downsampled to one time-weighted
	// mean point per window instead of one point per scheduling event.
	// Zero — the default — keeps the per-event series and leaves event
	// streams without state samples.
	StateWindow sim.Time
}

// KVCacheConfig sizes the optional block-level prefix cache. Pinned
// cache blocks live in their own block pool — they are not charged
// against the instance's byte-denominated KV budget, which carries only
// each request's uncached remainder.
type KVCacheConfig struct {
	// BlockTokens is the tokens per cache block (default 32).
	BlockTokens int64
	// DeviceBlocks is the device-tier capacity in blocks. Required,
	// positive.
	DeviceBlocks int
	// HostSpillBlocks sizes the host-memory spill tier (0 disables it);
	// restores from it cost Platform.TransferTime over the restored
	// bytes — near-free on unified-memory platforms, interconnect-priced
	// on discrete ones.
	HostSpillBlocks int
	// Policy is the eviction order (default kvcache.LRU).
	Policy kvcache.Policy
}

// KVCacheStats is the per-instance (or fleet-aggregated) prefix-cache
// ledger: the block counters of kvcache.Stats, whose Reconcile states
// the conservation laws, plus the configuration and the restore cost.
type KVCacheStats struct {
	// Config echo, so a report names the cache it measured.
	BlockTokens     int64
	DeviceBlocks    int
	HostSpillBlocks int
	Policy          string

	// Block ledger (counts in blocks) and the prefill tokens it saved.
	kvcache.Stats

	// RestoredBytes / RestoreStall price the host-tier restores: bytes
	// copied back to device and the total interconnect stall charged.
	RestoredBytes float64
	RestoreStall  sim.Time
	// HitRate is (Hits+Restored)/Lookups (0 when no lookups).
	HitRate float64
}

// Reconcile checks the cache ledger's conservation laws; nil receivers
// (cache off) pass trivially. The fleet layers run it before returning
// stats, so a broken ledger fails the simulation instead of shipping
// wrong numbers.
func (k *KVCacheStats) Reconcile() error {
	if k == nil {
		return nil
	}
	return k.Stats.Reconcile()
}

// setHitRate derives HitRate from the ledger.
func (k *KVCacheStats) setHitRate() {
	k.HitRate = 0
	if k.Lookups > 0 {
		k.HitRate = float64(k.Hits+k.Restored) / float64(k.Lookups)
	}
}

// MergeKVCacheStats sums per-instance cache ledgers into one aggregate,
// echoing the first non-nil ledger's configuration and recomputing the
// hit rate. Nil when every part is nil, so cache-off fleets keep the
// section absent.
func MergeKVCacheStats(parts []*KVCacheStats) *KVCacheStats {
	var out *KVCacheStats
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			cp := *p
			out = &cp
			continue
		}
		out.Stats.Add(p.Stats)
		out.RestoredBytes += p.RestoredBytes
		out.RestoreStall += p.RestoreStall
	}
	if out != nil {
		out.setHitRate()
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case c.Platform == nil || c.Model == nil:
		return fmt.Errorf("serve: config needs a platform and a model")
	case c.Seq <= 0:
		return fmt.Errorf("serve: sequence length must be positive")
	case c.Policy == StaticBatch && c.BatchSize <= 0:
		return fmt.Errorf("serve: static policy needs a positive batch size")
	case c.Policy == GreedyBatch && c.MaxBatch <= 0:
		return fmt.Errorf("serve: greedy policy needs a positive max batch")
	case (c.Policy == ContinuousBatch || c.Policy == ChunkedPrefill) && c.MaxBatch <= 0:
		return fmt.Errorf("serve: %s policy needs a positive max batch", c.Policy)
	case c.KVMemoryUtil < 0 || c.KVMemoryUtil > 1:
		return fmt.Errorf("serve: KVMemoryUtil must be in [0,1], got %g", c.KVMemoryUtil)
	}
	return nil
}

// SamplePoint is one (time, value) observation of a server state series.
type SamplePoint struct {
	T sim.Time
	V float64
}

// Stats summarizes a serving simulation. The legacy prefill-only
// policies populate the TTFT block only; the continuous policies fill
// every field.
type Stats struct {
	Requests int
	// Completed counts requests that finished generation (== Requests
	// for the legacy policies, which have no abandonment).
	Completed int
	// Abandoned counts requests dropped after waiting AbandonAfter.
	Abandoned int
	// HandedOff counts prefill completions shipped to a decode instance
	// (disaggregated pools only; such requests settle here without
	// counting as Completed).
	HandedOff int
	// Resumed counts requests this instance picked up mid-stream from
	// another instance's prefill (disaggregated pools only).
	Resumed int
	// Killed counts in-flight requests evicted by an instance kill
	// (dynamic fleets only; such requests settle here without counting
	// as Completed — the fleet layer requeues or drops them).
	Killed int `json:",omitempty"`
	// Preemptions counts KV-pressure evictions of running requests.
	Preemptions int
	Horizon     sim.Time // last completion time

	// Latency summarizes the served requests. The legacy policies fill
	// the TTFT fields only; TPOT and E2E stay zero.
	Latency

	Throughput float64 // completed requests per second over the horizon
	// TokensOut counts generated tokens delivered to users (continuous
	// only; recomputed-after-preemption tokens count once).
	TokensOut int64
	// TokensPerSec is generated-token throughput (continuous only).
	TokensPerSec float64
	// Goodput is completed-requests-per-second meeting TTFTSLO
	// (== Throughput when no SLO is set).
	Goodput float64
	// SLOAttainment is the fraction of completed requests meeting
	// TTFTSLO (1 when no SLO is set).
	SLOAttainment float64

	// MeanBatch is the average executed batch size — where on the
	// latency/throughput curve the policy actually operated.
	MeanBatch float64
	// Batches counts executed batches (legacy) or iterations
	// (continuous).
	Batches int

	// KV-cache occupancy (continuous policies only).
	KVCapacityBytes float64
	PeakKVBytes     float64
	PeakKVFrac      float64
	MeanKVFrac      float64 // time-weighted over the horizon
	// KVOccupancy samples the KV-used fraction at every scheduling
	// event.
	KVOccupancy []SamplePoint
	// QueueDepth samples the waiting-queue length at every scheduling
	// event.
	QueueDepth    []SamplePoint
	MaxQueueDepth int

	// KVCache is the prefix-cache ledger, present only when the
	// instance was configured with one — reports without a cache stay
	// bit-identical to the pre-cache output.
	KVCache *KVCacheStats `json:",omitempty"`
}

// Simulate runs the server over the request stream (sorted by arrival)
// and returns latency statistics. Legacy policies use a deterministic
// event walk where the device serves one batch at a time; continuous
// policies run the calendar-driven iteration-level simulator.
func Simulate(cfg Config, requests []Request) (*Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(requests) == 0 {
		return nil, fmt.Errorf("serve: no requests")
	}
	reqs := make([]Request, len(requests))
	copy(reqs, requests)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })

	if cfg.Policy == ContinuousBatch || cfg.Policy == ChunkedPrefill {
		return simulateContinuous(cfg, reqs)
	}

	// The device is busy for one prefill of the whole batch. Bucket 1
	// keeps every length exact, so each batch costs what Run's traced
	// TTFT would.
	sm, err := engine.SharedStepModel(cfg.Platform, cfg.Model, cfg.Mode, 1)
	if err != nil {
		return nil, err
	}
	stats := &Stats{Requests: len(reqs)}
	latencies := make([]sim.Time, 0, len(reqs))

	var deviceFree sim.Time
	var totalBatch int
	next := 0
	for next < len(reqs) {
		// The server considers the queue when the device frees or when
		// enough requests have arrived.
		now := sim.MaxTime(deviceFree, reqs[next].Arrival)

		var batch int
		switch cfg.Policy {
		case StaticBatch:
			// Wait for BatchSize arrivals or the wait bound.
			want := cfg.BatchSize
			if next+want > len(reqs) {
				want = len(reqs) - next
			}
			fullAt := reqs[next+want-1].Arrival
			deadline := reqs[next].Arrival + cfg.MaxWait
			start := sim.MaxTime(now, fullAt)
			if cfg.MaxWait > 0 && deadline < start {
				// Dispatch a partial batch at the deadline: count the
				// arrivals available by then.
				start = sim.MaxTime(now, deadline)
				batch = 0
				for next+batch < len(reqs) && reqs[next+batch].Arrival <= start && batch < cfg.BatchSize {
					batch++
				}
				if batch == 0 {
					batch = 1
					start = sim.MaxTime(now, reqs[next].Arrival)
				}
				now = start
			} else {
				batch = want
				now = start
			}
		case GreedyBatch:
			batch = 0
			for next+batch < len(reqs) && reqs[next+batch].Arrival <= now && batch < cfg.MaxBatch {
				batch++
			}
			if batch == 0 {
				batch = 1
				now = reqs[next].Arrival
			}
		}

		dur, err := sm.Prefill(int64(batch), cfg.Seq)
		if err != nil {
			return nil, err
		}
		done := now + dur
		for i := 0; i < batch; i++ {
			latencies = append(latencies, done-reqs[next+i].Arrival)
		}
		next += batch
		deviceFree = done
		totalBatch += batch
		stats.Batches++
	}

	stats.Completed = stats.Requests
	stats.Latency = SummarizeLatency(latencies, nil, nil)
	stats.Horizon = deviceFree
	stats.Throughput = float64(stats.Requests) / stats.Horizon.Seconds()
	stats.SLOAttainment, stats.Goodput = SLOGoodput(latencies, cfg.TTFTSLO, stats.Horizon, stats.Throughput)
	stats.MeanBatch = float64(totalBatch) / float64(stats.Batches)
	return stats, nil
}

// PoissonArrivals generates n requests with exponential inter-arrival
// times at the given rate (requests/second), deterministically from the
// seed. n and ratePerSec must be positive.
func PoissonArrivals(n int, ratePerSec float64, seed int64) ([]Request, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: PoissonArrivals needs a positive request count, got %d", n)
	}
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("serve: PoissonArrivals needs a positive rate, got %g req/s", ratePerSec)
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	var t float64 // seconds
	for i := range reqs {
		t += rng.ExpFloat64() / ratePerSec
		reqs[i] = Request{ID: i, Arrival: sim.Time(t * 1e9)}
	}
	return reqs, nil
}

// UniformArrivals generates n requests at a fixed positive interval.
// Like PoissonArrivals, invalid arguments return an error: both
// generators feed the same simulation pipelines and callers handle
// their failures uniformly.
func UniformArrivals(n int, interval sim.Time) ([]Request, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: UniformArrivals needs a positive request count, got %d", n)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("serve: UniformArrivals needs a positive interval, got %v", interval)
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: i, Arrival: sim.Time(i) * interval}
	}
	return reqs, nil
}
