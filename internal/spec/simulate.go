package spec

import (
	"encoding/json"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/skipsim/skip/internal/cluster"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/kvcache"
	"github.com/skipsim/skip/internal/metrics"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// Report is the unified outcome of Simulate: one type for all three
// layers, discriminated by Kind. Exactly the matching section is
// populated.
type Report struct {
	Kind Kind `json:"kind"`

	// KindRun: the engine result — Run for prefill-only specs,
	// Generate when run.new_tokens is positive (then Run is nil).
	Run      *engine.Result         `json:"run,omitempty"`
	Generate *engine.GenerateResult `json:"generate,omitempty"`

	// KindServe: the serving statistics.
	Serve *serve.Stats `json:"serve,omitempty"`

	// KindCluster: the fleet statistics.
	Cluster *cluster.Stats `json:"cluster,omitempty"`

	// KindDisagg: the disaggregated-fleet statistics.
	Disagg *cluster.DisaggStats `json:"disagg,omitempty"`

	// KindSweep: the swept field's JSON path and the ordered series,
	// one full Report per substituted value.
	SweepField string       `json:"sweep_field,omitempty"`
	Sweep      []SweepPoint `json:"sweep,omitempty"`

	// Metrics is the derived series a report.metrics section selects:
	// one entry per requested path, absent otherwise.
	Metrics []Metric `json:"metrics,omitempty"`

	// Offered is the workload's request count (serve, cluster, and
	// disagg kinds).
	Offered int `json:"offered,omitempty"`

	// Timeline is the windowed fleet time series an
	// observability.timeline section requests; absent otherwise, so
	// timeline-off reports stay bit-identical.
	Timeline *metrics.Timeline `json:"timeline,omitempty"`

	// Profile is the simulator's self-measurement (wall time, events
	// processed, allocation churn); present only under WithProfile /
	// `skip sim -profile`, because wall time is machine-dependent by
	// nature.
	Profile *metrics.Profile `json:"profile,omitempty"`
}

// Metric is one extracted series: Values holds a single element for a
// plain run and one element per sweep point (in value order) for a
// sweep. Values carries legitimate zeros, so it has no omitempty.
type Metric struct {
	Name   string    `json:"name"`
	Path   string    `json:"path"`
	Values []float64 `json:"values"`
}

// ReportJSON renders a Report as indented JSON with a stable field
// order (struct declaration order; times are virtual nanoseconds). The
// CLI's -json flag and library consumers share this one marshaller.
func ReportJSON(r *Report) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// options collects Simulate's functional options.
type options struct {
	observer      serve.Observer
	progressEvery int
	sweepWorkers  int
	profile       bool
	counter       *atomic.Int64
}

// Option customizes a Simulate call without touching the Spec — the
// Spec stays a pure, serializable experiment description while
// process-local concerns (event hooks) ride alongside.
type Option func(*options)

// WithObserver streams simulation events (arrival, routing, admission,
// preemption, first token, completion, progress ticks) to fn as they
// happen, in deterministic order for a fixed spec.
func WithObserver(fn serve.Observer) Option {
	return func(o *options) { o.observer = fn }
}

// WithProgressEvery emits an EventProgress tick every n completions
// (default: every 10% of the workload). Only meaningful with
// WithObserver.
func WithProgressEvery(n int) Option {
	return func(o *options) { o.progressEvery = n }
}

// WithSweepWorkers bounds the sweep worker pool (default: one worker
// per CPU, capped at the point count). The assembled series is
// bit-identical at any worker count — this is a resource knob, not a
// results knob. An observer overrides it to one worker so the event
// stream stays in point order. Ignored for non-sweep specs.
func WithSweepWorkers(n int) Option {
	return func(o *options) { o.sweepWorkers = n }
}

// WithProfile records the simulator's own cost into Report.Profile:
// wall time, events processed, events/sec, allocation churn, and heap
// high-water mark. The simulated results are unaffected — only the
// profile block itself is machine-dependent.
func WithProfile() Option {
	return func(o *options) {
		o.profile = true
		if o.counter == nil {
			o.counter = new(atomic.Int64)
		}
	}
}

// withCounter shares an existing event counter: sweep points feed the
// parent run's tally instead of opening their own.
func withCounter(c *atomic.Int64) Option {
	return func(o *options) { o.counter = c }
}

// chainObs composes two observers, tolerating nils, so internal taps
// (timeline aggregator, profile counter) ride the event stream without
// disturbing the user's observer.
func chainObs(a, b serve.Observer) serve.Observer {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(e serve.Event) { a(e); b(e) }
}

// countObs appends the profile event counter to obs when profiling.
func (o *options) countObs(obs serve.Observer) serve.Observer {
	if o.counter == nil {
		return obs
	}
	c := o.counter
	return chainObs(obs, func(serve.Event) { c.Add(1) })
}

// timelineAgg builds the windowed aggregator an observability.timeline
// section requests (nil when absent). initial seeds the active-instance
// level before any join/leave events; fleet-shape series are only
// emitted for multi-instance kinds, and the cache series only when a
// prefix cache is actually configured.
func (s *Spec) timelineAgg(kind Kind, initial int) *metrics.Aggregator {
	if s.Observability == nil || s.Observability.Timeline == nil {
		return nil
	}
	tl := s.Observability.Timeline
	var slo sim.Time
	if s.Serve != nil {
		slo = sim.Time(s.Serve.TTFTSLOMs * 1e6)
	}
	fleet := kind == KindCluster || kind == KindDisagg
	return metrics.NewAggregator(metrics.AggregatorConfig{
		Interval:         sim.Time(tl.IntervalMs * 1e6),
		PerInstance:      tl.PerInstance,
		SLO:              slo,
		InitialInstances: initial,
		FleetSeries:      fleet,
		TransferSeries:   kind == KindDisagg,
		CacheSeries:      fleet && s.Fleet.KVCache != nil,
	})
}

// timelineWindow is the spec's window width as virtual time.
func (s *Spec) timelineWindow() sim.Time {
	return sim.Time(s.Observability.Timeline.IntervalMs * 1e6)
}

// Simulate validates the spec and dispatches it to the engine, serving,
// or cluster layer (see Kind), returning a unified Report; a spec with
// a sweep section runs once per swept value and returns the ordered
// series. The simulation is deterministic for a fixed spec — sweep
// points included, at any worker count: CLI, bench, and library callers
// sharing a spec reproduce identical numbers.
func Simulate(s *Spec, opts ...Option) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.observer != nil {
		o.observer = stampSeq(o.observer)
	}
	var before runtime.MemStats
	var start time.Time
	var missesBefore int64
	if o.profile {
		missesBefore = engine.OracleRuns()
		runtime.ReadMemStats(&before)
		//skiplint:allow walltime — WithProfile measures the simulator itself (real wall time around the run), not simulated time
		start = time.Now()
	}
	var rep *Report
	var err error
	switch s.Kind() {
	case KindSweep:
		rep, err = s.simulateSweep(&o)
	case KindRun:
		rep, err = s.simulateRun()
	case KindServe:
		rep, err = s.simulateServe(&o)
	default:
		rep, err = s.simulateFleet(&o, s.Kind())
	}
	if err != nil {
		return nil, err
	}
	if o.profile {
		//skiplint:allow walltime — closes the WithProfile wall-clock envelope opened above; profiling-only, never feeds sim results
		wall := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		events := o.counter.Load()
		p := &metrics.Profile{
			WallNs:         wall.Nanoseconds(),
			SimulatedNs:    simulatedNs(rep),
			Events:         events,
			Mallocs:        int64(after.Mallocs - before.Mallocs),
			AllocBytes:     int64(after.TotalAlloc - before.TotalAlloc),
			HeapAllocBytes: int64(after.HeapAlloc),
			OracleMisses:   engine.OracleRuns() - missesBefore,
		}
		if wall > 0 {
			p.EventsPerSec = float64(events) / wall.Seconds()
		}
		if events > 0 {
			p.AllocsPerEvent = float64(p.Mallocs) / float64(events)
		}
		rep.Profile = p
	}
	if s.Report != nil {
		if err := s.attachMetrics(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// stampSeq numbers the event stream: every event the observer sees
// carries a strictly increasing Seq, starting at 1. Sweep points
// re-wrap the already-stamped observer; the outer (whole-run) stamp is
// applied last, so one global sequence spans all points in order.
func stampSeq(obs serve.Observer) serve.Observer {
	var seq int64
	return func(e serve.Event) {
		seq++
		e.Seq = seq
		obs(e)
	}
}

// platform resolves the top-level platform reference.
func (s *Spec) platform() (*hw.Platform, error) {
	if s.PlatformFile != "" {
		return hw.LoadPlatformFile(s.resolve(s.PlatformFile))
	}
	return hw.ByName(s.Platform)
}

// mode resolves the execution mode, defaulting to eager.
func (s *Spec) mode() (engine.Mode, error) {
	if s.Mode == "" {
		return engine.Eager, nil
	}
	return engine.ParseMode(s.Mode)
}

func (s *Spec) simulateRun() (*Report, error) {
	p, err := s.platform()
	if err != nil {
		return nil, err
	}
	m, err := models.ByName(s.Model)
	if err != nil {
		return nil, err
	}
	mode, err := s.mode()
	if err != nil {
		return nil, err
	}
	req := engine.Request{Platform: p, Model: m, Batch: s.Run.Batch, Seq: s.Run.Seq, Mode: mode}
	if s.Run.NewTokens > 0 {
		g, err := engine.RunGenerate(req, s.Run.NewTokens)
		if err != nil {
			return nil, err
		}
		return &Report{Kind: KindRun, Generate: g}, nil
	}
	res, err := engine.Run(req)
	if err != nil {
		return nil, err
	}
	return &Report{Kind: KindRun, Run: res}, nil
}

// requests materializes the workload's request stream.
func (s *Spec) requests() ([]serve.Request, error) {
	w := s.Workload
	if w.TraceFile != "" {
		return serve.LoadTraceFile(s.resolve(w.TraceFile))
	}
	if w.Scenario != "" {
		scen, err := serve.ParseScenario(w.Scenario)
		if err != nil {
			return nil, err
		}
		sw := serve.Workload{
			Scenario: scen, N: w.Requests, RatePerSec: w.RatePerSec, Seed: w.Seed,
			Turns: w.Turns, ContextGrowth: w.ContextGrowth,
		}
		if w.Prompt != nil {
			sw.Prompt = w.Prompt.dist()
		}
		if w.Output != nil {
			sw.Output = w.Output.dist()
		}
		return sw.Generate()
	}
	if w.Arrival == "uniform" {
		return serve.UniformArrivals(w.Requests, sim.Time(w.IntervalMs*1e6))
	}
	return serve.PoissonArrivals(w.Requests, w.RatePerSec, w.Seed)
}

func (d *LengthDistSpec) dist() serve.LengthDist {
	return serve.LengthDist{Mean: d.Mean, Sigma: d.Sigma, Min: d.Min, Max: d.Max}
}

// serveConfig builds the serve.Config a ServeSpec describes (platform
// left to the caller: fleet expansion substitutes per-group platforms).
// A nil ServeSpec yields the defaults.
func (s *Spec) serveConfig(obs serve.Observer) (serve.Config, error) {
	v := s.Serve
	if v == nil {
		v = &ServeSpec{}
	}
	policy, err := serve.ParsePolicy(v.policyName())
	if err != nil {
		return serve.Config{}, err
	}
	mode, err := s.mode()
	if err != nil {
		return serve.Config{}, err
	}
	m, err := models.ByName(s.Model)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Model: m, Mode: mode, Policy: policy,
		Seq:              v.Seq,
		MaxBatch:         v.MaxBatch,
		BatchSize:        v.BatchSize,
		MaxWait:          sim.Time(v.MaxWaitMs * 1e6),
		DefaultOutputLen: v.DefaultOutputTokens,
		PrefillChunk:     v.PrefillChunk,
		KVMemoryUtil:     v.KVMemoryUtil,
		KVCapacityBytes:  v.KVCapacityBytes,
		TTFTSLO:          sim.Time(v.TTFTSLOMs * 1e6),
		AbandonAfter:     sim.Time(v.AbandonAfterMs * 1e6),
		LatencyBucket:    v.LatencyBucket,
		Observer:         obs,
	}
	if cfg.Seq == 0 {
		cfg.Seq = 512
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 32
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 8
	}
	if policy == serve.StaticBatch && cfg.MaxWait == 0 {
		cfg.MaxWait = 100 * sim.Millisecond
	}
	return cfg, nil
}

func (s *Spec) simulateServe(o *options) (*Report, error) {
	reqs, err := s.requests()
	if err != nil {
		return nil, err
	}
	agg := s.timelineAgg(KindServe, 1)
	obs := progressObserver(o.observer, len(reqs), o.progressEvery)
	if agg != nil {
		obs = chainObs(obs, agg.Observe)
	}
	cfg, err := s.serveConfig(o.countObs(obs))
	if err != nil {
		return nil, err
	}
	if agg != nil {
		cfg.StateWindow = s.timelineWindow()
	}
	cfg.Platform, err = s.platform()
	if err != nil {
		return nil, err
	}
	st, err := serve.Simulate(cfg, reqs)
	if err != nil {
		return nil, err
	}
	rep := &Report{Kind: KindServe, Serve: st, Offered: len(reqs)}
	if agg != nil {
		rep.Timeline = agg.Finish(st.Horizon)
	}
	return rep, nil
}

// simulateFleet runs a cluster or disagg spec: groups expand into
// members of one cluster.Config in group order, and only the
// disaggregation section branches.
func (s *Spec) simulateFleet(o *options, kind Kind) (*Report, error) {
	reqs, err := s.requests()
	if err != nil {
		return nil, err
	}
	base, err := s.serveConfig(nil)
	if err != nil {
		return nil, err
	}
	f := s.Fleet
	if f.KVCache != nil {
		base.KVCache, err = f.KVCache.config()
		if err != nil {
			return nil, err
		}
	}
	initial := 0
	for _, g := range f.Groups {
		initial += g.Count
	}
	agg := s.timelineAgg(kind, initial)
	if agg != nil {
		base.StateWindow = s.timelineWindow()
	}
	obs := progressObserver(o.observer, len(reqs), o.progressEvery)
	if agg != nil {
		obs = chainObs(obs, agg.Observe)
	}
	cfg := cluster.Config{
		ShortPrompt:     f.ShortPrompt,
		TTFTSLO:         base.TTFTSLO,
		AdmitRatePerSec: f.AdmitRatePerSec,
		AdmitBurst:      f.AdmitBurst,
		Observer:        o.countObs(obs),
	}
	for _, g := range f.Groups {
		m := cluster.Member{Serve: base}
		if m.Serve.Platform, err = hw.ByName(g.Platform); err != nil {
			return nil, err
		}
		if m.Role, err = cluster.ParseRole(g.Role); err != nil {
			return nil, err
		}
		for i := 0; i < g.Count; i++ {
			cfg.Instances = append(cfg.Instances, m)
		}
	}
	if f.Autoscale != nil {
		if cfg.Autoscale, err = f.Autoscale.config(base); err != nil {
			return nil, err
		}
	}
	if f.Faults != nil {
		cfg.Faults = f.Faults.config()
	}
	if s.Observability != nil {
		cfg.CounterfactualK = s.Observability.CounterfactualK
	}
	router := f.routerName()
	if d := f.Disaggregation; d != nil {
		router = d.prefillRouterName()
		cfg.Disagg = &cluster.Disaggregation{
			LinkAwareDecode: d.LinkAwareDecode,
			Transfer: cluster.TransferModel{
				HostHopMultiplier: d.HostHopMultiplier,
				BandwidthGBps:     d.BandwidthGBps,
				OverlapFraction:   d.OverlapFraction,
			},
		}
		if cfg.Disagg.DecodePolicy, err = cluster.ParsePolicy(d.decodeRouterName()); err != nil {
			return nil, err
		}
		if cfg.Autoscale != nil {
			if cfg.Autoscale.Role, err = cluster.ParseRole(f.Autoscale.roleName()); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Policy, err = cluster.ParsePolicy(router); err != nil {
		return nil, err
	}
	rep := &Report{Kind: kind, Offered: len(reqs)}
	if rep.Cluster, rep.Disagg, err = cluster.Simulate(cfg, reqs); err != nil {
		return nil, err
	}
	if agg != nil {
		rep.Timeline = agg.Finish(sim.Time(simulatedNs(rep)))
	}
	return rep, nil
}

// config builds the cluster.AutoscaleConfig an AutoscaleSpec describes:
// the spun-up template clones the base serving config with the named
// platform substituted.
func (a *AutoscaleSpec) config(base serve.Config) (*cluster.AutoscaleConfig, error) {
	p, err := hw.ByName(a.Platform)
	if err != nil {
		return nil, err
	}
	tmpl := base
	tmpl.Platform = p
	signal, err := cluster.ParseScaleSignal(a.signalName())
	if err != nil {
		return nil, err
	}
	return &cluster.AutoscaleConfig{
		Template:    tmpl,
		Signal:      signal,
		Target:      a.Target,
		Min:         a.Min,
		Max:         a.Max,
		Interval:    sim.Time(a.IntervalMs * 1e6),
		Cooldown:    sim.Time(a.CooldownMs * 1e6),
		SpinUpDelay: sim.Time(a.SpinUpDelayMs * 1e6),
		SLOWindow:   a.SLOWindow,
	}, nil
}

// config builds the serve.KVCacheConfig a KVCacheSpec describes.
func (k *KVCacheSpec) config() (*serve.KVCacheConfig, error) {
	policy, err := kvcache.ParsePolicy(k.policyName())
	if err != nil {
		return nil, err
	}
	return &serve.KVCacheConfig{
		BlockTokens:     k.BlockTokens,
		DeviceBlocks:    k.DeviceBlocks,
		HostSpillBlocks: k.HostSpillBlocks,
		Policy:          policy,
	}, nil
}

// config builds the cluster.FaultsConfig a FaultsSpec describes.
func (fc *FaultsSpec) config() *cluster.FaultsConfig {
	out := &cluster.FaultsConfig{
		CrashRatePerSec: fc.CrashRatePerSec,
		Seed:            fc.Seed,
	}
	for _, ft := range fc.Schedule {
		kind, _ := cluster.ParseFaultKind(ft.Kind) // validated already
		out.Faults = append(out.Faults, cluster.Fault{
			At:     sim.Time(ft.AtMs * 1e6),
			Kind:   kind,
			Target: ft.Instance,
			Dst:    ft.Dst,
			Factor: ft.Factor,
		})
	}
	return out
}

// simulatedNs extracts the virtual span a report covers (sweeps sum
// their points), giving Profile a simulated-vs-wall time ratio.
func simulatedNs(rep *Report) int64 {
	switch {
	case rep.Serve != nil:
		return int64(rep.Serve.Horizon)
	case rep.Cluster != nil:
		return int64(rep.Cluster.Horizon)
	case rep.Disagg != nil:
		return int64(rep.Disagg.Horizon)
	case rep.Sweep != nil:
		var total int64
		for i := range rep.Sweep {
			if rep.Sweep[i].Report != nil {
				total += simulatedNs(rep.Sweep[i].Report)
			}
		}
		return total
	}
	return 0
}

// progressObserver forwards events to obs and interleaves an
// EventProgress tick every `every` completions (default: every 10% of
// total, at least 1). A nil obs disables observation entirely.
func progressObserver(obs serve.Observer, total, every int) serve.Observer {
	if obs == nil {
		return nil
	}
	if every <= 0 {
		every = total / 10
		if every < 1 {
			every = 1
		}
	}
	done := 0
	return func(e serve.Event) {
		obs(e)
		if e.Type != serve.EventCompleted {
			return
		}
		done++
		if done%every == 0 || done == total {
			obs(serve.Event{Time: e.Time, Type: serve.EventProgress, Completed: done, Total: total})
		}
	}
}
