// Package spec is the declarative front door of SKIP-Sim: one
// JSON-serializable Spec describes an experiment — the platform, model,
// and execution mode, the workload that arrives (scenario generators,
// Poisson/uniform arrival processes, or a logged request trace), the
// serving configuration, and optionally a multi-instance fleet — and
// Simulate dispatches it to the engine, serving, or cluster layer based
// on which sections are present.
//
// Simulate is the only way to run a serving or fleet simulation, in the
// library (skip.Simulate) and on the command line (skip sim -spec): a
// CLI run, a bench experiment, and a library caller share one document,
// round-trippable via Load/Save, and consume one Report.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Spec is a complete, JSON-serializable experiment description.
//
// Section presence selects the simulation layer (see Kind):
//
//   - run only                 → a single engine inference (KindRun)
//   - workload + serve         → one serving instance (KindServe)
//   - workload + fleet [+serve] → a routed multi-instance fleet
//     (KindCluster; serve acts as the per-instance base config)
type Spec struct {
	// Platform names a catalog platform (see hw.PlatformNames) for run
	// and serve specs; fleet specs name platforms per group instead.
	Platform string `json:"platform,omitempty"`
	// PlatformFile loads a custom platform definition (JSON) instead of
	// Platform, for what-if hardware studies. Relative paths resolve
	// against the spec file's directory.
	PlatformFile string `json:"platform_file,omitempty"`
	// Model names a catalog model (see models.ModelNames). Required.
	Model string `json:"model"`
	// Mode is the execution mode name ("eager", "flash",
	// "compile-default", "compile-reduce-overhead",
	// "compile-max-autotune"). Empty means eager.
	Mode string `json:"mode,omitempty"`

	// Run describes a single inference (mutually exclusive with
	// Workload/Serve/Fleet).
	Run *RunSpec `json:"run,omitempty"`
	// Workload describes the request stream for serve and fleet specs.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Serve configures the serving instance (or, with Fleet, the base
	// config every instance inherits).
	Serve *ServeSpec `json:"serve,omitempty"`
	// Fleet configures a multi-instance fleet behind a router.
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Sweep runs the experiment once per value of one document field and
	// returns a Report series (Kind "sweep") instead of a single result.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Observability turns on request-level instrumentation that default
	// runs omit: routing decision records with counterfactual scoring.
	Observability *ObservabilitySpec `json:"observability,omitempty"`
	// Report derives named metric series from the result document:
	// report leaves selected by JSON path, extracted per sweep point.
	Report *ReportSpec `json:"report,omitempty"`

	// baseDir is the directory relative file references (trace_file,
	// platform_file) resolve against; Load sets it to the spec file's
	// directory, Parse leaves it empty (the process working directory).
	baseDir string
}

// SweepSpec sweeps one document field across a value series: the base
// spec is cloned once per value, the named leaf substituted, and every
// point simulated as an independent experiment. Points execute
// concurrently on a bounded worker pool (see WithSweepWorkers) and the
// series is reassembled in value order, so a sweep Report is
// bit-identical to running the points serially by hand.
//
// The base document must be valid standalone — the swept field keeps
// its base value as a placeholder — and each point is re-validated
// after substitution, so a value that would make the document invalid
// fails with the offending point named.
type SweepSpec struct {
	// Field names the swept leaf by its JSON path from the document
	// root, e.g. "workload.rate_per_sec", "serve.max_batch",
	// "fleet.disaggregation.bandwidth_gbps", or an indexed
	// "fleet.groups[0].count". The section holding the leaf must be
	// present in the base document; only numeric and string leaves are
	// sweepable.
	Field string `json:"field"`
	// Values lists the points explicitly — numbers or strings, matching
	// the leaf's type (integer leaves need integral values). Mutually
	// exclusive with the range form.
	Values []any `json:"values,omitempty"`
	// From/To/Steps is the range form: Steps points from From to To
	// inclusive, for numeric leaves only.
	From  float64 `json:"from,omitempty"`
	To    float64 `json:"to,omitempty"`
	Steps int     `json:"steps,omitempty"`
	// Scale spaces the range points: "linear" (the default) or "log"
	// (geometric spacing; needs positive from and to).
	Scale string `json:"scale,omitempty"`
}

// ObservabilitySpec enables request-level instrumentation. All knobs
// default off, so a spec without this section reports bit-identically
// to one that never had it.
type ObservabilitySpec struct {
	// CounterfactualK, when positive, records every routing decision
	// (fleet specs only) with up to K scored alternatives, plus replays
	// of the stateless policies over the same picks — the report then
	// carries cluster.Routing or disagg.PrefillRouting/DecodeRouting.
	CounterfactualK int `json:"counterfactual_k,omitempty"`
	// Timeline, when present, aggregates the run into per-interval
	// windowed fleet series (TTFT/TPOT percentiles, throughput, SLO
	// attainment, queue depth, KV occupancy, and — per layer — fleet
	// size, transfer backlog, cache hit rate): the report then carries
	// Report.Timeline. Serve and fleet specs with a continuous policy
	// only.
	Timeline *TimelineSpec `json:"timeline,omitempty"`
}

// TimelineSpec configures windowed timeline aggregation.
type TimelineSpec struct {
	// IntervalMs is the window width in milliseconds. Required,
	// positive.
	IntervalMs float64 `json:"interval_ms"`
	// PerInstance additionally emits a per-instance series subset for
	// every instance that appears in the run (fleet specs).
	PerInstance bool `json:"per_instance,omitempty"`
}

// MetricSpec names one report leaf to extract as a flat series.
type MetricSpec struct {
	// Name labels the series; empty defaults to Path.
	Name string `json:"name,omitempty"`
	// Path is the leaf's JSON path from the report root, e.g.
	// "serve.P95TTFT", "cluster.Goodput", "cluster.Chaos.Killed",
	// "disagg.Instances[0].Serve.TokensPerSec". Section names use the
	// report's JSON keys; struct fields use their Go names (the report
	// structs serialize field names verbatim). Only numeric leaves are
	// extractable.
	Path string `json:"path"`
}

// ReportSpec selects derived metrics: each named leaf is extracted from
// the finished report — once for a single run, once per point for a
// sweep — and surfaced as Report.Metrics, a flat named series that
// spares consumers walking nested report documents.
type ReportSpec struct {
	Metrics []MetricSpec `json:"metrics"`
}

// RunSpec describes a single engine inference.
type RunSpec struct {
	// Batch is the batch size. Required, positive.
	Batch int64 `json:"batch"`
	// Seq is the input sequence length in tokens. Required, positive.
	Seq int64 `json:"seq"`
	// NewTokens, when positive, runs prefill plus that many
	// autoregressive decode steps (RunGenerate) instead of prefill only.
	NewTokens int `json:"new_tokens,omitempty"`
}

// LengthDistSpec is a clamped lognormal token-length distribution
// (serve.LengthDist in JSON form).
type LengthDistSpec struct {
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma,omitempty"`
	Min   int64   `json:"min,omitempty"`
	Max   int64   `json:"max,omitempty"`
}

// WorkloadSpec describes the request stream. Exactly one source
// applies: a scenario generator (Scenario set), a logged request trace
// (TraceFile set), or a bare arrival process with config-default
// lengths (neither set).
type WorkloadSpec struct {
	// Scenario selects a workload generator: "chat", "agentic",
	// "summarize", or "mixed".
	Scenario string `json:"scenario,omitempty"`
	// TraceFile replays a logged request stream instead of generating
	// one: CSV with an arrival_ms,prompt_tokens,output_tokens,session_id
	// header (see serve.ParseTrace). Relative paths resolve against the
	// spec file's directory.
	TraceFile string `json:"trace_file,omitempty"`
	// Arrival selects the arrival process for non-trace workloads:
	// "poisson" (default) or "uniform" (fixed interval; no scenario).
	Arrival string `json:"arrival,omitempty"`
	// Requests is the stream length. Required unless TraceFile is set.
	Requests int `json:"requests,omitempty"`
	// RatePerSec is the Poisson arrival rate.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// IntervalMs is the uniform arrival interval in milliseconds.
	IntervalMs float64 `json:"interval_ms,omitempty"`
	// Seed drives all workload randomness; a fixed (scenario, requests,
	// rate, seed) tuple reproduces the identical stream.
	Seed int64 `json:"seed,omitempty"`
	// Prompt / Output override the scenario's length distributions.
	Prompt *LengthDistSpec `json:"prompt,omitempty"`
	Output *LengthDistSpec `json:"output,omitempty"`
	// Turns is the agentic trajectory length (default 4).
	Turns int `json:"turns,omitempty"`
	// ContextGrowth is the agentic per-turn prompt growth in tokens
	// (default 256).
	ContextGrowth int64 `json:"context_growth,omitempty"`
}

// ServeSpec configures a serving instance (serve.Config in JSON form).
// Zero fields take the documented defaults.
type ServeSpec struct {
	// Policy is the batching policy: "continuous" (default),
	// "chunked-prefill", "static", or "greedy". Fleet instances need a
	// continuous policy.
	Policy string `json:"policy,omitempty"`
	// MaxBatch caps the running-set (or greedy group) size. Default 32.
	MaxBatch int `json:"max_batch,omitempty"`
	// BatchSize is the static policy's target batch. Default 8.
	BatchSize int `json:"batch_size,omitempty"`
	// MaxWaitMs bounds how long static holds a partial batch. Default
	// 100ms.
	MaxWaitMs float64 `json:"max_wait_ms,omitempty"`
	// Seq is the prompt length for requests without one. Default 512.
	Seq int64 `json:"seq,omitempty"`
	// DefaultOutputTokens is the generation length for requests without
	// one. Default 1 (prefill-equivalent).
	DefaultOutputTokens int64 `json:"default_output_tokens,omitempty"`
	// PrefillChunk is the chunked-prefill chunk size in tokens. Default
	// 512.
	PrefillChunk int64 `json:"prefill_chunk,omitempty"`
	// KVMemoryUtil is the HBM fraction usable for weights + KV cache.
	// Like every spec field, zero means unset and takes the default
	// (0.9); set KVCapacityBytes to force a specific budget.
	KVMemoryUtil float64 `json:"kv_memory_util,omitempty"`
	// KVCapacityBytes overrides the derived KV budget when positive.
	KVCapacityBytes float64 `json:"kv_capacity_bytes,omitempty"`
	// TTFTSLOMs is the time-to-first-token objective for goodput
	// accounting, in milliseconds (0 disables). For fleet specs it is
	// also the fleet-level SLO.
	TTFTSLOMs float64 `json:"ttft_slo_ms,omitempty"`
	// AbandonAfterMs drops requests still queued after this many
	// milliseconds (0: never).
	AbandonAfterMs float64 `json:"abandon_after_ms,omitempty"`
	// LatencyBucket quantizes the cached iteration-latency oracle in
	// tokens. Default 64; coarser runs faster.
	LatencyBucket int64 `json:"latency_bucket,omitempty"`
}

// FleetGroupSpec is one homogeneous slice of a fleet.
type FleetGroupSpec struct {
	// Platform names a catalog platform.
	Platform string `json:"platform"`
	// Count is the number of instances. Required, positive.
	Count int `json:"count"`
	// Role assigns the group to a disaggregation pool: "prefill",
	// "decode", or "both" (the default). Only valid when the fleet has a
	// disaggregation section; the same platform may then appear once per
	// role.
	Role string `json:"role,omitempty"`
}

// FleetSpec configures a multi-instance fleet behind a front-end
// router with optional token-bucket admission control.
type FleetSpec struct {
	// Groups lists the fleet's homogeneous slices. Required, non-empty,
	// no duplicate platforms.
	Groups []FleetGroupSpec `json:"groups"`
	// Router is the routing policy: "least-queue" (default),
	// "round-robin", "least-kv", "session-affinity", "platform-aware",
	// "prefix-affinity" (scores cached-block overlap; needs kv_cache to
	// beat least-queue).
	Router string `json:"router,omitempty"`
	// ShortPrompt is the platform-aware regime boundary in prompt
	// tokens. Default 512.
	ShortPrompt int64 `json:"short_prompt,omitempty"`
	// AdmitRatePerSec enables token-bucket admission control (0: off).
	AdmitRatePerSec float64 `json:"admit_rate_per_sec,omitempty"`
	// AdmitBurst is the bucket depth in requests (default: one second's
	// refill).
	AdmitBurst float64 `json:"admit_burst,omitempty"`
	// Disaggregation enables prefill/decode disaggregated serving:
	// groups take roles, completed prefills hand their KV cache to a
	// decode-pool instance over the interconnect-priced transfer model,
	// and the report carries the cross-pool ledger and transfer
	// economics. Without it, Router places requests on a monolithic
	// fleet and group roles are rejected.
	Disaggregation *DisaggregationSpec `json:"disaggregation,omitempty"`
	// Autoscale grows and shrinks the fleet against a load signal while
	// the simulation runs; the report then carries the churn ledger and
	// fleet-size series. Without it (and without faults) membership is
	// static and the report is bit-identical to the pre-lifecycle
	// output.
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	// Faults injects instance crashes, slow-node multipliers, and (for
	// disaggregated fleets) degraded links on schedule or at
	// seeded-random instants.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// KVCache gives every instance a block-level prefix cache
	// (internal/kvcache): repeated session prefixes earn prefill reuse
	// credit, and the report carries the cache ledger. Without it no
	// instance caches and reports are bit-identical to the pre-cache
	// output.
	KVCache *KVCacheSpec `json:"kv_cache,omitempty"`
}

// KVCacheSpec configures the per-instance block-level prefix cache
// (serve.KVCacheConfig in JSON form). Every instance in the fleet gets
// its own private cache with these dimensions.
type KVCacheSpec struct {
	// BlockTokens is the tokens-per-block granularity. Default 32.
	BlockTokens int64 `json:"block_tokens,omitempty"`
	// DeviceBlocks is the device-tier capacity in blocks. Required,
	// positive.
	DeviceBlocks int `json:"device_blocks"`
	// HostSpillBlocks is the host-memory spill tier's capacity in
	// blocks (0 — the default — drops evicted blocks instead of
	// spilling; restores from the spill tier are priced through the
	// platform interconnect, near-free on coupled parts).
	HostSpillBlocks int `json:"host_spill_blocks,omitempty"`
	// Policy is the eviction policy: "lru" (default) or "fifo".
	Policy string `json:"policy,omitempty"`
}

// AutoscaleSpec configures the fleet autoscale controller
// (cluster.AutoscaleConfig in JSON form). Spun-up instances clone the
// spec's serve section with the named platform substituted.
type AutoscaleSpec struct {
	// Platform names the catalog platform spun-up instances run on.
	// Required.
	Platform string `json:"platform"`
	// Signal selects the tracked load signal: "queue-depth" (the
	// default; outstanding requests per active instance),
	// "slo-attainment" (rolling TTFT-SLO fraction; needs
	// serve.ttft_slo_ms), or "transfer-queue" (pending KV transfers per
	// active decode instance; disaggregated fleets only).
	Signal string `json:"signal,omitempty"`
	// Target is the signal's setpoint. Required, positive; in (0,1] for
	// slo-attainment.
	Target float64 `json:"target"`
	// Min / Max bound the active-instance count. Max is required; the
	// configured base fleet is a floor regardless of Min.
	Min int `json:"min,omitempty"`
	Max int `json:"max"`
	// IntervalMs is the controller period (default 1000ms); CooldownMs
	// the minimum time between scale actions (default 2× interval).
	IntervalMs float64 `json:"interval_ms,omitempty"`
	CooldownMs float64 `json:"cooldown_ms,omitempty"`
	// SpinUpDelayMs is the lag between a grow decision and the instance
	// joining (default: 2000ms coupled, 4000ms loosely-coupled).
	SpinUpDelayMs float64 `json:"spin_up_delay_ms,omitempty"`
	// SLOWindow is the rolling per-instance sample window of the
	// slo-attainment signal (default 50).
	SLOWindow int `json:"slo_window,omitempty"`
	// Role names the pool the controller scales in a disaggregated
	// fleet: "prefill", "decode" (the default — decode capacity is what
	// transfer pressure starves), or "both". Rejected for monolithic
	// fleets.
	Role string `json:"role,omitempty"`
}

// FaultSpec is one scheduled fault injection.
type FaultSpec struct {
	// AtMs is the injection instant in milliseconds.
	AtMs float64 `json:"at_ms"`
	// Kind is the failure mode: "crash", "slow-node", or
	// "link-degraded" (disaggregated fleets only).
	Kind string `json:"kind"`
	// Instance is the victim's index in the flattened fleet (groups in
	// order; for link faults, the transfer source). An index that does
	// not exist at fire time — or an already stopped instance — makes
	// the fault a no-op.
	Instance int `json:"instance"`
	// Dst is a link fault's destination-instance index.
	Dst int `json:"dst,omitempty"`
	// Factor is the slow-node iteration multiplier or the link
	// bandwidth divisor (≥ 1).
	Factor float64 `json:"factor,omitempty"`
}

// FaultsSpec configures fault injection (cluster.FaultsConfig in JSON
// form).
type FaultsSpec struct {
	// Schedule lists deterministic injections.
	Schedule []FaultSpec `json:"schedule,omitempty"`
	// CrashRatePerSec adds seeded-random crashes: a Poisson process
	// over the arrival window, victims drawn uniformly from the
	// survivors; crashes the fleet could not survive are skipped.
	CrashRatePerSec float64 `json:"crash_rate_per_sec,omitempty"`
	// Seed drives the random-crash plan.
	Seed int64 `json:"seed,omitempty"`
}

// DisaggregationSpec configures prefill/decode disaggregation for a
// fleet (see internal/cluster).
type DisaggregationSpec struct {
	// PrefillRouter places fresh arrivals on the prefill pool:
	// "least-queue" (default), "round-robin", "least-kv",
	// "session-affinity", "platform-aware".
	PrefillRouter string `json:"prefill_router,omitempty"`
	// DecodeRouter places completed prefills on the decode pool
	// (default "least-kv" — decode placement is a KV-capacity
	// decision).
	DecodeRouter string `json:"decode_router,omitempty"`
	// HostHopMultiplier scales KV-transfer wire time once per
	// loosely-coupled endpoint (default 2: store-and-forward through
	// host DRAM; 1 disables the penalty).
	HostHopMultiplier float64 `json:"host_hop_multiplier,omitempty"`
	// BandwidthGBps, when positive, overrides both endpoints'
	// interconnect bandwidth for transfers — the what-if knob for
	// sweeping the disaggregation crossover.
	BandwidthGBps float64 `json:"bandwidth_gbps,omitempty"`
	// OverlapFraction models chunked/layerwise KV shipping: this
	// fraction of each transfer's wire time hides behind decode start
	// (the link stays busy for the full time; only the resume instant
	// advances). Must be in [0,1); 0 — the default — is strict
	// store-and-forward.
	OverlapFraction float64 `json:"overlap_fraction,omitempty"`
	// LinkAwareDecode replaces DecodeRouter's pick with a
	// transfer-aware one: each handoff goes to the fitting decode
	// instance with the earliest projected landing (link FIFO backlog
	// plus exposed wire time for the bytes actually shipped), ties to
	// the lowest KV pressure. Off (the default) keeps DecodeRouter's
	// placement bit for bit.
	LinkAwareDecode bool `json:"link_aware_decode,omitempty"`
}

// Kind is the simulation layer a Spec dispatches to.
type Kind int

const (
	// KindRun is a single engine inference (prefill, optionally plus
	// decode).
	KindRun Kind = iota
	// KindServe is one serving instance under a request stream.
	KindServe
	// KindCluster is a routed multi-instance fleet.
	KindCluster
	// KindDisagg is a prefill/decode disaggregated fleet with
	// interconnect-priced KV handoff.
	KindDisagg
	// KindSweep is a one-field sweep: an ordered series of independent
	// simulations of the base document.
	KindSweep
)

func (k Kind) String() string {
	switch k {
	case KindRun:
		return "run"
	case KindServe:
		return "serve"
	case KindCluster:
		return "cluster"
	case KindDisagg:
		return "disagg"
	case KindSweep:
		return "sweep"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalJSON renders the kind as its name, so machine-consumed Reports
// read "cluster" rather than an enum ordinal.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Kind reports the layer the spec dispatches to, from section presence:
// a sweep section means a Report series, a fleet section means cluster
// (disagg when it has a disaggregation section), a serve section means
// serve, otherwise run. Validate enforces that the sections present are
// coherent.
func (s *Spec) Kind() Kind {
	if s.Sweep != nil {
		return KindSweep
	}
	return s.baseKind()
}

// baseKind is the layer one sweep point dispatches to — the kind of the
// document with the sweep section ignored.
func (s *Spec) baseKind() Kind {
	switch {
	case s.Fleet != nil && s.Fleet.Disaggregation != nil:
		return KindDisagg
	case s.Fleet != nil:
		return KindCluster
	case s.Serve != nil:
		return KindServe
	default:
		return KindRun
	}
}

// Parse decodes a Spec from JSON. Unknown fields anywhere in the
// document are rejected — a typoed knob must not silently fall back to
// a default — as is trailing content. Relative file references in a
// parsed spec resolve against the process working directory; prefer
// Load for file-based specs.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing content after the spec document")
	}
	return s, nil
}

// Load reads and parses a spec file. Relative trace_file and
// platform_file references resolve against the file's directory, so a
// spec can ship next to its trace.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	s.baseDir = filepath.Dir(path)
	return s, nil
}

// Save writes the spec as indented JSON. Save∘Load is the identity:
// a loaded spec saved next to its source parses back equal.
func Save(s *Spec, path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resolve joins a relative file reference with the spec's base
// directory.
func (s *Spec) resolve(path string) string {
	if s.baseDir == "" || filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(s.baseDir, path)
}
