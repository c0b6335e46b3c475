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
// Serving and fleet simulations have one entry point, Simulate over a
// Spec: one JSON-serializable document describing platform/model/mode,
// the workload (scenario generators, arrival processes, or a logged
// request trace), the serving configuration, and optionally a fleet.
// Simulate dispatches it to the right layer and returns a unified
// Report:
//
//	sp, err := skip.LoadSpec("experiment.json")
//	rep, err := skip.Simulate(sp, skip.WithObserver(func(e skip.Event) { … }))
//	fmt.Println(rep.Kind, rep.Serve.P95TTFT)
//
// The serving and fleet names the package exports type that Report's
// fields and name the policies a spec selects.
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
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/hw"
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
type NullKernelResult = engine.NullKernelResult

// MeasureNullKernel reproduces the paper's §V-A launch-overhead
// microbenchmark on a platform.
func MeasureNullKernel(p *Platform, iterations int) NullKernelResult {
	return engine.MeasureNullKernel(p, iterations)
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

// Serving-layer names: the types of a serve Report (Report.Serve) and
// the batching policies a spec's serve.policy selects. A serving run is
// a Spec with workload and serve sections, run by Simulate; the
// continuous policies run a discrete-event, iteration-level
// (Orca-style) scheduler with a KV-cache capacity model (see the serve
// package documentation).
type (
	// ServeStats summarizes request latencies, throughput, goodput, and
	// KV-cache occupancy.
	ServeStats = serve.Stats
	// ServePolicy selects the batching policy.
	ServePolicy = serve.Policy
	// ServeSample is one (time, value) point of a server state series.
	ServeSample = serve.SamplePoint
	// Latency is the TTFT/TPOT/E2E block embedded in ServeStats and in
	// every fleet report.
	Latency = serve.Latency
	// KVCacheStats is the reconciled prefix-cache ledger a report
	// carries when the spec has a fleet.kv_cache section.
	KVCacheStats = serve.KVCacheStats
)

// Batching policies.
const (
	StaticBatch     = serve.StaticBatch
	GreedyBatch     = serve.GreedyBatch
	ContinuousBatch = serve.ContinuousBatch
	ChunkedPrefill  = serve.ChunkedPrefill
)

// ParseServePolicy maps a serve.policy name ("continuous", "static", …)
// to a policy.
func ParseServePolicy(name string) (ServePolicy, error) { return serve.ParsePolicy(name) }

// Fleet-layer names: the types of a fleet Report (Report.Cluster for a
// monolithic fleet, Report.Disagg for a prefill/decode disaggregated
// one) and the routing policies a spec's fleet.router selects. A fleet
// run is a Spec with workload and fleet sections, run by Simulate — the
// fleet-scale extension of the paper's platform comparison. See the
// cluster package documentation.
type (
	// ClusterStats summarizes fleet-level latencies, goodput, the
	// request ledger, load imbalance, and per-instance breakdowns.
	ClusterStats = cluster.Stats
	// ClusterInstanceStats is one instance's share of a fleet result.
	ClusterInstanceStats = cluster.InstanceStats
	// DisaggStats summarizes a disaggregated fleet simulation: the
	// cross-pool request ledger, transfer economics, and pooled
	// latencies.
	DisaggStats = cluster.DisaggStats
	// DisaggInstanceStats is one instance's share of a disaggregated
	// fleet result.
	DisaggInstanceStats = cluster.DisaggInstanceStats
	// ChaosStats is the churn ledger of a dynamic fleet.
	ChaosStats = cluster.ChaosStats
	// RouterPolicy selects how the front-end places requests.
	RouterPolicy = cluster.Policy
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

// ParseRouterPolicy maps a fleet.router name ("round-robin",
// "least-kv", …) to a routing policy.
func ParseRouterPolicy(name string) (RouterPolicy, error) { return cluster.ParsePolicy(name) }

// RouterPolicies lists the routing policies in presentation order.
func RouterPolicies() []RouterPolicy { return cluster.Policies() }

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
// engine, serving instance, or fleet — returning a unified Report. It is
// the only function that runs a serving or fleet simulation; a
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
	// carries by value in Event.State (the zero value on every other
	// event type).
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
