// Package skip is the public API of SKIP-Sim: a simulator-backed
// reproduction of "Characterizing and Optimizing LLM Inference Workloads
// on CPU-GPU Coupled Architectures" (ISPASS 2025).
//
// The package exposes four layers:
//
//   - Platforms and Models: the paper's evaluation hardware (Table IV)
//     and LLM workloads (Table III + the fusion-study models).
//   - Run: execute a simulated inference (eager / FlashAttention /
//     torch.compile modes) and obtain timings plus a PyTorch-Profiler
//     style trace.
//   - Profile / Classify: SKIP's trace analysis — operator→kernel
//     dependency graphs, TKLQT/AKD/IL metrics, CPU-vs-GPU boundedness,
//     transition and crossover detection.
//   - RecommendFusion: the proximity-score kernel-fusion recommender.
//
// The declarative entry point is a Spec: one JSON-serializable document
// describing platform/model/mode, the workload (scenario generators,
// arrival processes, or a logged request trace), the serving
// configuration, and optionally a fleet. Simulate dispatches it to the
// right layer and returns a unified Report:
//
//	sp, err := skip.LoadSpec("experiment.json")
//	rep, err := skip.Simulate(sp, skip.WithObserver(func(e skip.Event) { … }))
//	fmt.Println(rep.Kind, rep.Serve.P95TTFT)
//
// Quick start (imperative single run):
//
//	res, err := skip.Run(skip.GH200, "llama-3.2-1B", 1, 512, skip.ModeEager)
//	metrics, _, err := skip.Profile(res.Trace)
//	fmt.Println(metrics.TKLQT, skip.ClassifyRun(metrics))
package skip

import (
	"github.com/skipsim/skip/internal/bench"
	"github.com/skipsim/skip/internal/cluster"
	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/cuda"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/kvcache"
	"github.com/skipsim/skip/internal/metrics"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/spec"
	"github.com/skipsim/skip/internal/trace"
)

// Core aliases: the public names for the library's central types.
type (
	// Platform is a CPU-GPU coupled evaluation system.
	Platform = hw.Platform
	// Model is an LLM architecture description.
	Model = models.Config
	// Mode is a PyTorch execution mode.
	Mode = engine.Mode
	// Request is a fully-specified simulation request.
	Request = engine.Request
	// Result is a simulation outcome: timings plus trace.
	Result = engine.Result
	// Trace is a profiler trace in Chrome trace-event form.
	Trace = trace.Trace
	// Metrics are SKIP's per-run measurements (TKLQT, AKD, IL, …).
	Metrics = core.Metrics
	// DependencyGraph is the reconstructed operator→kernel graph.
	DependencyGraph = core.Graph
	// KernelStat is a per-kernel-symbol aggregate (top-k tracking).
	KernelStat = core.KernelStat
	// SeriesPoint is one batch-size sample of a sweep.
	SeriesPoint = core.SeriesPoint
	// Boundedness labels a run CPU-bound or GPU-bound.
	Boundedness = core.Boundedness
	// FusionReport is a chain-length sweep of fusion recommendations.
	FusionReport = fusion.Report
	// FusionAnalysis is the mining result at one chain length.
	FusionAnalysis = fusion.Analysis
	// Chain is one kernel-chain candidate with its proximity score.
	Chain = fusion.Chain
	// Experiment regenerates one paper table or figure.
	Experiment = bench.Experiment
	// ExperimentResult is an experiment's tables and checks.
	ExperimentResult = bench.Result
	// Time is virtual time in nanoseconds.
	Time = sim.Time
)

// Common virtual-time units, mirroring time.Nanosecond and friends.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Execution modes (paper §II-C).
const (
	ModeEager                 = engine.Eager
	ModeFlashAttention        = engine.Flash
	ModeCompileDefault        = engine.CompileDefault
	ModeCompileReduceOverhead = engine.CompileReduceOverhead
	ModeCompileMaxAutotune    = engine.CompileMaxAutotune
)

// Boundedness classes (paper §V-B, §V-D).
const (
	CPUBound = core.CPUBound
	GPUBound = core.GPUBound
	Balanced = core.Balanced
)

// Platform names (Table IV plus the future-work TC projection).
const (
	AMDA100   = hw.AMDA100Name
	IntelH100 = hw.IntelH100Name
	GH200     = hw.GH200Name
	MI300A    = hw.MI300AName
)

// Platforms returns the paper's three evaluation platforms in figure
// order (AMD+A100, Intel+H100, GH200).
func Platforms() []*Platform { return hw.EvaluationPlatforms() }

// PlatformByName returns a fresh instance of a cataloged platform.
func PlatformByName(name string) (*Platform, error) { return hw.ByName(name) }

// PlatformNames lists the platform catalog.
func PlatformNames() []string { return hw.PlatformNames() }

// Models returns the paper's Table III workloads.
func Models() []*Model { return models.TableIIIModels() }

// FusionStudyModels returns the 7B models of Figs. 3/5.
func FusionStudyModels() []*Model { return models.FusionStudyModels() }

// ModelByName returns a cataloged model config.
func ModelByName(name string) (*Model, error) { return models.ByName(name) }

// ModelNames lists the model catalog.
func ModelNames() []string { return models.ModelNames() }

// Run simulates one prefill inference of the named model on the named
// platform and returns timings plus the profiler trace.
func Run(platform, model string, batch, seq int64, mode Mode) (*Result, error) {
	p, err := hw.ByName(platform)
	if err != nil {
		return nil, err
	}
	m, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	return engine.Run(Request{Platform: p, Model: m, Batch: batch, Seq: seq, Mode: mode})
}

// RunRequest simulates a fully-specified request (custom platforms or
// model configs included).
func RunRequest(req Request) (*Result, error) { return engine.Run(req) }

// Profile analyzes a trace with SKIP: it reconstructs the
// operator→kernel dependency graph and computes TKLQT, AKD, IL, idle
// times, and launch-delay statistics.
func Profile(tr *Trace) (*Metrics, *DependencyGraph, error) { return core.Analyze(tr) }

// ClassifyRun labels a profiled run CPU-bound or GPU-bound (§V-B).
func ClassifyRun(m *Metrics) Boundedness { return core.ClassifyRun(m) }

// TransitionBatch finds the CPU→GPU-bound inflection of a TKLQT sweep.
func TransitionBatch(series []SeriesPoint) (int64, error) { return core.TransitionBatch(series) }

// Crossover finds the batch at which challenger's TTFT first beats
// incumbent's.
func Crossover(challenger, incumbent []SeriesPoint) (int64, error) {
	return core.Crossover(challenger, incumbent)
}

// BalancedRegion returns the batch range where both PUs stay busy.
func BalancedRegion(series []SeriesPoint, maxIdleFrac float64) (lo, hi int64, ok bool) {
	return core.BalancedRegion(series, maxIdleFrac)
}

// KernelSequence extracts the executed kernel-name sequence of a trace.
func KernelSequence(tr *Trace) []string { return fusion.KernelSequence(tr) }

// RecommendFusion mines the trace's kernel sequence for fusion
// candidates at the given chain lengths (nil for the paper's standard
// lengths 2…512) and computes ideal launch-savings speedups (Eqs. 6-8).
func RecommendFusion(tr *Trace, lengths []int) (*FusionReport, error) {
	if lengths == nil {
		lengths = fusion.StandardLengths()
	}
	return fusion.Sweep(fusion.KernelSequence(tr), lengths)
}

// NullKernelResult is the Table V microbenchmark outcome.
type NullKernelResult = cuda.NullKernelResult

// MeasureNullKernel reproduces the paper's §V-A launch-overhead
// microbenchmark on a platform.
func MeasureNullKernel(p *Platform, iterations int) NullKernelResult {
	return cuda.MeasureNullKernel(p, iterations)
}

// Experiments returns every registered paper artifact regenerator, in
// presentation order (tables, then figures, then extensions).
func Experiments() []*Experiment { return bench.All() }

// ExperimentByID returns one artifact regenerator ("table5", "fig6", …).
func ExperimentByID(id string) (*Experiment, error) { return bench.ByID(id) }

// GenerateResult reports an autoregressive generation run (prefill +
// decode steps).
type GenerateResult = engine.GenerateResult

// RunGenerate simulates prefill plus newTokens decode iterations against
// a growing KV cache (extension of the paper's prefill-only evaluation;
// §II-A motivates the phase split).
func RunGenerate(req Request, newTokens int) (*GenerateResult, error) {
	return engine.RunGenerate(req, newTokens)
}

// FusionApplication selects how an applied fusion plan collapses work.
type FusionApplication = engine.FusionApplication

// Fusion application models (see engine documentation).
const (
	LaunchSavingsOnly = engine.LaunchSavingsOnly
	FullRegionFusion  = engine.FullRegionFusion
)

// FusedRunResult reports an applied-fusion execution.
type FusedRunResult = engine.FusedRunResult

// RunFused executes an eager request with a proximity-score fusion plan
// of the given chain length applied — the fusion prototype the paper
// defers to future work (§VI).
func RunFused(req Request, chainLen int, app FusionApplication) (*FusedRunResult, error) {
	return engine.RunFused(req, chainLen, app)
}

// Attribution decomposes inference latency into CPU-only, GPU-only,
// overlapped, and bubble phases.
type Attribution = core.Attribution

// Attribute computes the latency decomposition of a trace — a
// finer-grained view of the paper's idle-time analysis (Figs. 10b/c).
func Attribute(tr *Trace) (*Attribution, error) { return core.Attribute(tr) }

// LoadPlatformFile reads a custom platform definition (JSON) for what-if
// hardware studies; SavePlatformFile on a Platform writes one.
func LoadPlatformFile(path string) (*Platform, error) { return hw.LoadPlatformFile(path) }

// Serving-layer aliases: simulate an inference server with a batching
// policy over the platform simulator (paper §II-A's latency/throughput
// trade-off). The continuous policies run a discrete-event,
// iteration-level (Orca-style) scheduler with a KV-cache capacity
// model; see the serve package documentation.
type (
	// ServeConfig parameterizes a serving simulation.
	ServeConfig = serve.Config
	// ServeStats summarizes request latencies, throughput, goodput, and
	// KV-cache occupancy.
	ServeStats = serve.Stats
	// ServeRequest is one arriving inference request (with per-request
	// prompt and output lengths).
	ServeRequest = serve.Request
	// ServePolicy selects the batching policy.
	ServePolicy = serve.Policy
	// ServeWorkload generates deterministic scenario request streams.
	ServeWorkload = serve.Workload
	// ServeScenario names a workload shape (chat, agentic, …).
	ServeScenario = serve.Scenario
	// ServeLengthDist is a clamped lognormal token-length distribution.
	ServeLengthDist = serve.LengthDist
	// ServeSample is one (time, value) point of a server state series.
	ServeSample = serve.SamplePoint
)

// Batching policies.
const (
	StaticBatch     = serve.StaticBatch
	GreedyBatch     = serve.GreedyBatch
	ContinuousBatch = serve.ContinuousBatch
	ChunkedPrefill  = serve.ChunkedPrefill
)

// Workload scenarios.
const (
	ScenarioChat      = serve.ScenarioChat
	ScenarioAgentic   = serve.ScenarioAgentic
	ScenarioSummarize = serve.ScenarioSummarize
	ScenarioMixed     = serve.ScenarioMixed
)

// Serve simulates an inference server over a request stream.
//
// Deprecated: build a Spec with a workload and serve section and call
// Simulate; it shares this code path and adds validation, event
// streaming, and JSON round-tripping. Serve remains as a thin wrapper
// for imperative callers.
func Serve(cfg ServeConfig, requests []ServeRequest) (*ServeStats, error) {
	return serve.Simulate(cfg, requests)
}

// ParseServePolicy maps a CLI name ("continuous", "static", …) to a
// policy.
func ParseServePolicy(name string) (ServePolicy, error) { return serve.ParsePolicy(name) }

// ParseServeScenario maps a CLI name ("chat", "agentic", …) to a
// workload scenario.
func ParseServeScenario(name string) (ServeScenario, error) { return serve.ParseScenario(name) }

// PoissonArrivals generates a deterministic Poisson request stream.
func PoissonArrivals(n int, ratePerSec float64, seed int64) ([]ServeRequest, error) {
	return serve.PoissonArrivals(n, ratePerSec, seed)
}

// UniformArrivals generates a fixed-interval request stream. Like
// PoissonArrivals, it fails on a non-positive count or interval.
func UniformArrivals(n int, interval Time) ([]ServeRequest, error) {
	return serve.UniformArrivals(n, interval)
}

// GenerateWorkload produces a scenario's request stream (chat, agentic
// multi-turn, long-context summarization, or a mix), deterministic for
// a fixed seed.
func GenerateWorkload(w ServeWorkload) ([]ServeRequest, error) { return w.Generate() }

// Cluster-layer aliases: simulate a multi-instance, possibly
// heterogeneous fleet behind a front-end router with admission control
// — the fleet-scale extension of the paper's platform comparison. See
// the cluster package documentation.
type (
	// ClusterConfig parameterizes a fleet simulation: per-instance
	// serving configs, routing policy, and admission control.
	ClusterConfig = cluster.Config
	// ClusterStats summarizes fleet-level latencies, goodput, the
	// request ledger, load imbalance, and per-instance breakdowns.
	ClusterStats = cluster.Stats
	// ClusterInstanceStats is one instance's share of a fleet result.
	ClusterInstanceStats = cluster.InstanceStats
	// RouterPolicy selects how the front-end places requests.
	RouterPolicy = cluster.Policy
	// FleetGroup is one homogeneous slice of a fleet spec.
	FleetGroup = cluster.FleetGroup
	// AutoscaleConfig parameterizes the fleet autoscale controller.
	AutoscaleConfig = cluster.AutoscaleConfig
	// ScaleSignal selects the autoscale load signal.
	ScaleSignal = cluster.ScaleSignal
	// FaultsConfig parameterizes fault injection.
	FaultsConfig = cluster.FaultsConfig
	// Fault is one scheduled fault injection.
	Fault = cluster.Fault
	// FaultKind classifies a fault (crash, slow-node, link-degraded).
	FaultKind = cluster.FaultKind
	// ChaosStats is the churn ledger of a dynamic fleet.
	ChaosStats = cluster.ChaosStats
	// InstanceState is a serving instance's lifecycle state.
	InstanceState = serve.InstanceState
	// EvictedRequest is one in-flight request a killed instance pushed
	// out for the fleet layer to requeue.
	EvictedRequest = serve.Evicted
)

// Autoscale signals.
const (
	SignalQueueDepth    = cluster.SignalQueueDepth
	SignalSLOAttainment = cluster.SignalSLOAttainment
	SignalTransferQueue = cluster.SignalTransferQueue
)

// Fault kinds.
const (
	FaultCrash       = cluster.FaultCrash
	FaultSlowNode    = cluster.FaultSlowNode
	FaultLinkDegrade = cluster.FaultLinkDegrade
)

// Instance lifecycle states.
const (
	StateActive   = serve.StateActive
	StateDraining = serve.StateDraining
	StateStopped  = serve.StateStopped
)

// Routing policies.
const (
	RouterRoundRobin      = cluster.RoundRobin
	RouterLeastQueue      = cluster.LeastQueue
	RouterLeastKV         = cluster.LeastKV
	RouterSessionAffinity = cluster.SessionAffinity
	RouterPlatformAware   = cluster.PlatformAware
	RouterPrefixAffinity  = cluster.PrefixAffinity
)

// KV-cache aliases: the block-level prefix cache instances attach when
// a fleet.kv_cache section (or ServeConfig.KVCache) is present. See the
// kvcache package documentation for the block, hashing, and eviction
// model.
type (
	// KVCacheConfig dimensions an instance's prefix cache (block
	// granularity, device and host-spill tiers, eviction policy).
	KVCacheConfig = serve.KVCacheConfig
	// KVCacheStats is the reconciled cache ledger a report carries.
	KVCacheStats = serve.KVCacheStats
	// KVCachePolicy selects the block eviction policy.
	KVCachePolicy = kvcache.Policy
)

// KV-cache eviction policies.
const (
	KVCacheLRU  = kvcache.LRU
	KVCacheFIFO = kvcache.FIFO
)

// ParseKVCachePolicy maps a policy name ("lru", "fifo") to a
// KVCachePolicy.
func ParseKVCachePolicy(name string) (KVCachePolicy, error) { return kvcache.ParsePolicy(name) }

// SimulateCluster runs a fleet simulation over a request stream.
//
// Deprecated: build a Spec with a workload and fleet section and call
// Simulate; it shares this code path and adds validation, event
// streaming, and JSON round-tripping. SimulateCluster remains as a thin
// wrapper for imperative callers.
func SimulateCluster(cfg ClusterConfig, requests []ServeRequest) (*ClusterStats, error) {
	return cluster.Simulate(cfg, requests)
}

// ParseRouterPolicy maps a CLI name ("round-robin", "least-kv", …) to
// a routing policy.
func ParseRouterPolicy(name string) (RouterPolicy, error) { return cluster.ParsePolicy(name) }

// RouterPolicies lists the routing policies in presentation order.
func RouterPolicies() []RouterPolicy { return cluster.Policies() }

// ParseFleet parses a fleet spec like "GH200:4,Intel+H100:4" (or, with
// disaggregation roles, "GH200:2/prefill,Intel+H100:6/decode") against
// the platform catalog.
func ParseFleet(spec string) ([]FleetGroup, error) { return cluster.ParseFleet(spec) }

// Disaggregation-layer aliases: prefill/decode disaggregated serving
// with an interconnect-priced KV handoff between pools — the fleet-
// scale operationalization of the paper's prefill-compute vs decode-
// bandwidth asymmetry. See the cluster package documentation.
type (
	// DisaggConfig parameterizes a disaggregated fleet simulation.
	DisaggConfig = cluster.DisaggConfig
	// DisaggGroup is one fleet slice with a role.
	DisaggGroup = cluster.Group
	// DisaggRole assigns a group to a pool (prefill, decode, both).
	DisaggRole = cluster.Role
	// DisaggStats summarizes a disaggregated fleet simulation: the
	// cross-pool request ledger, transfer economics, and pooled
	// latencies.
	DisaggStats = cluster.DisaggStats
	// DisaggInstanceStats is one instance's share of a disaggregated
	// fleet result.
	DisaggInstanceStats = cluster.DisaggInstanceStats
	// KVTransferModel prices KV-cache movement between instances from
	// the platforms' interconnects.
	KVTransferModel = cluster.TransferModel
	// ServeHandoff is the state of a request leaving a prefill instance
	// to resume mid-stream on a decode instance.
	ServeHandoff = serve.Handoff
)

// Disaggregation roles.
const (
	RoleBoth    = cluster.RoleBoth
	RolePrefill = cluster.RolePrefill
	RoleDecode  = cluster.RoleDecode
)

// ParseDisaggRole maps a fleet-role name ("prefill", "decode", "both",
// or empty) to a DisaggRole.
func ParseDisaggRole(name string) (DisaggRole, error) { return cluster.ParseRole(name) }

// SimulateDisagg runs a prefill/decode disaggregated fleet over a
// request stream. Prefer a Spec with a fleet.disaggregation section and
// Simulate; this imperative door exists for callers composing custom
// platforms or per-pool configs in code.
func SimulateDisagg(cfg DisaggConfig, requests []ServeRequest) (*DisaggStats, error) {
	return cluster.SimulateDisagg(cfg, requests)
}

// KVBytesPerToken is a model's per-cached-token KV footprint — the
// quantity the disaggregation transfer model multiplies by a handoff's
// cache extent.
func KVBytesPerToken(m *Model) float64 { return serve.KVBytesPerToken(m) }

// FleetConfigs expands fleet groups over a base serving config, one
// config per instance with the group's platform substituted. Groups
// with a nil platform or non-positive count are rejected.
func FleetConfigs(groups []FleetGroup, base ServeConfig) ([]ServeConfig, error) {
	return cluster.FleetConfigs(groups, base)
}

// Spec API: the declarative, JSON-serializable entry point. One Spec
// document selects the simulation layer by which sections are present —
// run (engine), workload+serve (serving instance), workload+fleet
// (routed cluster) — and Simulate returns a unified Report. See the
// spec package documentation for the JSON schema.
type (
	// Spec is a complete experiment description.
	Spec = spec.Spec
	// RunSpec is the single-inference section of a Spec.
	RunSpec = spec.RunSpec
	// WorkloadSpec describes the request stream (scenario, arrival
	// process, or request-trace file).
	WorkloadSpec = spec.WorkloadSpec
	// ServeSpec is the serving section of a Spec.
	ServeSpec = spec.ServeSpec
	// FleetSpec is the fleet section of a Spec.
	FleetSpec = spec.FleetSpec
	// FleetGroupSpec is one homogeneous slice of a FleetSpec.
	FleetGroupSpec = spec.FleetGroupSpec
	// DisaggregationSpec is the fleet.disaggregation section: pool
	// routers and the KV-transfer knobs.
	DisaggregationSpec = spec.DisaggregationSpec
	// KVCacheSpec is the fleet.kv_cache section: per-instance prefix
	// caching with reuse credit and tiered host-memory spill.
	KVCacheSpec = spec.KVCacheSpec
	// AutoscaleSpec is the fleet.autoscale section: the feedback
	// controller that grows and shrinks a running fleet.
	AutoscaleSpec = spec.AutoscaleSpec
	// FaultsSpec is the fleet.faults section: scheduled and
	// seeded-random failure injection.
	FaultsSpec = spec.FaultsSpec
	// FaultSpec is one scheduled fault of a FaultsSpec.
	FaultSpec = spec.FaultSpec
	// SweepSpec is the sweep section of a Spec: one document field
	// swept across a value series, each point an independent simulation.
	SweepSpec = spec.SweepSpec
	// SweepPoint is one entry of a sweep Report's ordered series.
	SweepPoint = spec.SweepPoint
	// LengthDistSpec is a token-length distribution in JSON form.
	LengthDistSpec = spec.LengthDistSpec
	// Report is Simulate's unified outcome, discriminated by Kind.
	Report = spec.Report
	// ReportKind names the simulation layer a Spec dispatched to.
	ReportKind = spec.Kind
	// SimOption customizes a Simulate call (observers, progress ticks).
	SimOption = spec.Option
	// Event is one observation of a running simulation.
	Event = serve.Event
	// EventType classifies an Event.
	EventType = serve.EventType
	// Observer receives simulation events as they happen.
	Observer = serve.Observer
)

// Report kinds.
const (
	KindRun     = spec.KindRun
	KindServe   = spec.KindServe
	KindCluster = spec.KindCluster
	KindDisagg  = spec.KindDisagg
	KindSweep   = spec.KindSweep
)

// Simulation lifecycle event types.
const (
	EventArrival         = serve.EventArrival
	EventRejected        = serve.EventRejected
	EventUnroutable      = serve.EventUnroutable
	EventRouted          = serve.EventRouted
	EventAdmitted        = serve.EventAdmitted
	EventPreempted       = serve.EventPreempted
	EventAbandoned       = serve.EventAbandoned
	EventFirstToken      = serve.EventFirstToken
	EventKVTransferStart = serve.EventKVTransferStart
	EventKVTransferDone  = serve.EventKVTransferDone
	EventCompleted       = serve.EventCompleted
	EventProgress        = serve.EventProgress
	EventInstanceJoin    = serve.EventInstanceJoin
	EventDrainStart      = serve.EventDrainStart
	EventInstanceGone    = serve.EventInstanceGone
	EventFaultInjected   = serve.EventFaultInjected
	EventRequeued        = serve.EventRequeued
	EventBlockHit        = serve.EventBlockHit
	EventBlockEvict      = serve.EventBlockEvict
	EventBlockRestore    = serve.EventBlockRestore
	EventStateSample     = serve.EventStateSample
)

// Simulate validates the spec and runs it on the matching layer —
// engine, serving instance, or cluster — returning a unified Report; a
// spec with a sweep section runs once per swept value (concurrently on
// a bounded worker pool) and returns the ordered series. Deterministic
// for a fixed spec at any worker count: the CLI, bench experiments, and
// library callers sharing a spec reproduce identical numbers.
func Simulate(s *Spec, opts ...SimOption) (*Report, error) { return spec.Simulate(s, opts...) }

// WithObserver streams simulation events (arrival, routing, admission,
// preemption, first token, completion, progress ticks) to fn in
// deterministic order.
func WithObserver(fn Observer) SimOption { return spec.WithObserver(fn) }

// WithProgressEvery emits an EventProgress tick every n completions
// (default: every 10% of the workload).
func WithProgressEvery(n int) SimOption { return spec.WithProgressEvery(n) }

// WithSweepWorkers bounds the worker pool a sweep spec's points execute
// on (default: one per CPU). The series is bit-identical at any worker
// count; an observer forces one worker so events arrive in point order.
func WithSweepWorkers(n int) SimOption { return spec.WithSweepWorkers(n) }

// WithProfile records the simulator's own cost (wall time, events
// processed, events/sec, allocation churn) into Report.Profile. The
// simulated numbers are unaffected.
func WithProfile() SimOption { return spec.WithProfile() }

// Percentiles computes nearest-rank percentiles over a latency sample
// set with a single sort (zeros for an empty set) — the bulk form of
// per-request statistics assembly.
func Percentiles(samples []sim.Time, ps ...float64) []sim.Time {
	return serve.Percentiles(samples, ps...)
}

// LoadSpec reads a spec file; relative trace_file / platform_file
// references resolve against the file's directory.
func LoadSpec(path string) (*Spec, error) { return spec.Load(path) }

// ParseSpec decodes a Spec from JSON, rejecting unknown fields.
func ParseSpec(data []byte) (*Spec, error) { return spec.Parse(data) }

// SaveSpec writes a spec as indented JSON; SaveSpec∘LoadSpec is the
// identity.
func SaveSpec(s *Spec, path string) error { return spec.Save(s, path) }

// ReportJSON renders a Report as indented JSON with a stable field
// order (kinds as strings, times as virtual nanoseconds, traces
// excluded) — the machine-consumable form behind `skip sim -json`.
func ReportJSON(r *Report) ([]byte, error) { return spec.ReportJSON(r) }

// Observability aliases: request-level span timelines assembled from
// the event stream (exportable as Perfetto-loadable Chrome traces),
// routing decision records with counterfactual policy replays, and
// derived-metric extraction from finished reports. See the serve and
// cluster package documentation.
type (
	// TimelineBuilder assembles per-request span timelines from a
	// simulation's event stream: install builder.Observe as the
	// observer, then read Timelines, Reconcile, or export Trace.
	TimelineBuilder = serve.TimelineBuilder
	// RequestTimeline is one request's ordered, non-overlapping span
	// sequence from first sight to terminal outcome.
	RequestTimeline = serve.RequestTimeline
	// TimelineSegment is one closed span of a request's life.
	TimelineSegment = serve.Segment
	// TimelineSegmentKind classifies a span (queue, prefill, decode,
	// kv-stall, kv-transfer, requeue).
	TimelineSegmentKind = serve.SegmentKind
	// RoutingStats carries a router's decision records and
	// counterfactual replay summary (Report.Cluster.Routing,
	// Report.Disagg.PrefillRouting / DecodeRouting).
	RoutingStats = cluster.RoutingStats
	// RoutingDecision is one recorded pick with its scored alternatives.
	RoutingDecision = cluster.Decision
	// RoutingAltScore is one non-chosen candidate's load snapshot.
	RoutingAltScore = cluster.AltScore
	// CounterfactualStat summarizes one replayed policy's agreement with
	// the picks the active policy actually made.
	CounterfactualStat = cluster.CounterfactualStat
	// ObservabilitySpec is the observability section of a Spec.
	ObservabilitySpec = spec.ObservabilitySpec
	// ReportSpec is the report section of a Spec: derived-metric
	// selection by JSON path.
	ReportSpec = spec.ReportSpec
	// MetricSpec names one report leaf to extract.
	MetricSpec = spec.MetricSpec
	// Metric is one extracted series of a Report (one value per sweep
	// point; a single value for plain runs).
	Metric = spec.Metric
	// TimelineSpec is the observability.timeline section: windowed fleet
	// time series at a fixed interval, optionally per instance.
	TimelineSpec = spec.TimelineSpec
	// Timeline is the windowed fleet telemetry of Report.Timeline:
	// per-interval latency percentiles, throughput, goodput, queue and
	// KV occupancy, fleet size, and transfer/cache activity.
	Timeline = metrics.Timeline
	// TimelineSeries is one named window series of a Timeline.
	TimelineSeries = metrics.Series
	// TimelineInstanceSeries is one instance's series block of a
	// per-instance Timeline.
	TimelineInstanceSeries = metrics.InstanceSeries
	// WindowedHistogram is the streaming log-bucketed latency histogram
	// behind the timeline percentiles: fixed memory, mergeable,
	// quantiles within ~3.2% relative error.
	WindowedHistogram = metrics.Histogram
	// SimProfile is the simulator's self-measurement of Report.Profile:
	// wall time, events processed, events/sec, allocation churn.
	SimProfile = metrics.Profile
	// StateSample is the queue/KV/cache snapshot an EventStateSample
	// carries.
	StateSample = serve.StateSample
)

// Timeline segment kinds.
const (
	SegQueue    = serve.SegQueue
	SegPrefill  = serve.SegPrefill
	SegDecode   = serve.SegDecode
	SegStall    = serve.SegStall
	SegTransfer = serve.SegTransfer
	SegRequeue  = serve.SegRequeue
)

// NewTimelineBuilder returns an empty timeline builder; wire
// builder.Observe into Simulate via WithObserver.
func NewTimelineBuilder() *TimelineBuilder { return serve.NewTimelineBuilder() }

// ParseMode maps a mode name ("eager", "flash", "compile-default", …)
// to an execution Mode.
func ParseMode(name string) (Mode, error) { return engine.ParseMode(name) }

// LoadRequestTrace reads a request-trace CSV file (columns arrival_ms,
// prompt_tokens, output_tokens, session_id) for trace-replay workloads.
func LoadRequestTrace(path string) ([]ServeRequest, error) { return serve.LoadTraceFile(path) }
