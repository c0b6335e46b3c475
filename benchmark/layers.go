package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/skipsim/skip/internal/cluster"
	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/disagg"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/kvcache"
	"github.com/skipsim/skip/internal/metrics"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/spec"
)

// Probe sizes: large enough that one probe takes milliseconds, small
// enough that all of them add about a second to a traced run.
const (
	oracleMaxTokens = 2048    // longest bucketed length in the oracle grid
	oracleHitPasses = 200     // passes over the warm grid when timing hits
	calendarOps     = 200_000 // Schedule+Step pairs
	recordOps       = 1 << 20 // Histogram.Record calls
	validateReps    = 20
)

// layerMetrics assembles a traced replay's per-layer metrics: counts
// from its report and event stream, each layer's share of the replay's
// wall time, and the direct layer probes (run as child spans of one
// probe span). trace.overhead_pct is left to the parent process, which holds
// the untraced median.
func layerMetrics(in inputs, w *workload, out *outcome, tr *tracer, replay time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	tr.shares(replay, m)
	m["spec.events"] = float64(len(tr.events))
	replayCounts(out.report, tr, m)
	err := tr.span("probes", "probe", func() error {
		p, err := newProber(in, w, tr, m)
		if err != nil {
			return err
		}
		return p.run()
	})
	return m, err
}

// replayCounts records what the traced replay simulated. rep is nil for
// "paper", whose replay runs no fleet: every fleet count is then zero.
func replayCounts(rep *spec.Report, tr *tracer, m map[string]float64) {
	var cl cluster.Stats
	var dg disagg.Stats
	if rep != nil && rep.Cluster != nil {
		cl = *rep.Cluster
	}
	if rep != nil && rep.Disagg != nil {
		dg = *rep.Disagg
	}
	var iterations int
	var slots float64
	for _, s := range cl.Instances {
		iterations += s.Serve.Batches
		slots += s.Serve.MeanBatch * float64(s.Serve.Batches)
	}
	for _, s := range dg.Instances {
		iterations += s.Serve.Batches
		slots += s.Serve.MeanBatch * float64(s.Serve.Batches)
	}
	m["serve.iterations"] = float64(iterations)
	m["serve.mean_batch"] = 0
	if iterations > 0 {
		m["serve.mean_batch"] = slots / float64(iterations)
	}
	waits := serve.Percentiles(tr.waits, 50, 99)
	m["serve.queue_wait_ms_p50"] = waits[0].Milliseconds()
	m["serve.queue_wait_ms_p99"] = waits[1].Milliseconds()

	m["cluster.picks"] = float64(tr.counts[serve.EventRouted] + tr.counts[serve.EventRequeued])
	decisions := 0
	for _, r := range []*cluster.RoutingStats{cl.Routing, dg.PrefillRouting, dg.DecodeRouting} {
		if r != nil {
			decisions += r.Picks
		}
	}
	m["cluster.decisions"] = float64(decisions)
	var chaos cluster.ChaosStats
	for _, c := range []*cluster.ChaosStats{cl.Chaos, dg.Chaos} {
		if c != nil {
			chaos = *c
		}
	}
	m["cluster.joins"] = float64(chaos.Joins)
	m["cluster.crashes"] = float64(chaos.Crashes)
	m["cluster.requeued"] = float64(chaos.Requeued)

	var kv serve.KVCacheStats
	for _, k := range []*serve.KVCacheStats{cl.KVCache, dg.KVCache} {
		if k != nil {
			kv = *k
		}
	}
	m["kvcache.lookups"] = float64(kv.Lookups)
	m["kvcache.hit_rate"] = kv.HitRate
	m["kvcache.evictions"] = float64(kv.Evictions)
	m["kvcache.spills"] = float64(kv.Spills)
	m["kvcache.restored"] = float64(kv.Restored)

	m["disagg.transfers"] = float64(dg.Transfers)
	m["disagg.kv_gb"] = dg.KVBytesMoved / 1e9
	m["disagg.stall_ms_mean"] = dg.MeanTransferStall.Milliseconds()
}

// prober runs the direct layer probes. Fleet-layer probes take their
// inputs from fleet, the workload's spec — or, for "paper", the
// reference workload at quick scale — and events, that spec's recorded
// event stream.
type prober struct {
	in     inputs
	tr     *tracer
	m      map[string]float64
	fleet  *workload
	events []serve.Event
	base   serve.Config
	reqs   []serve.Request
}

func newProber(in inputs, w *workload, tr *tracer, m map[string]float64) (*prober, error) {
	p := &prober{in: in, tr: tr, m: m, fleet: w, events: tr.events}
	if w.paper() {
		ref, err := load(inputs{Workload: referenceWorkload, Quick: true})
		if err != nil {
			return nil, err
		}
		p.fleet, p.events = ref, nil
		record := func(e serve.Event) { p.events = append(p.events, e) }
		err = tr.span("reference."+referenceWorkload, "probe", func() error {
			_, err := spec.Simulate(ref.spec, spec.WithObserver(record))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var err error
	p.base, err = baseConfig(p.fleet.spec)
	return p, err
}

func (p *prober) run() error {
	probes := []struct {
		name string
		fn   func() error
	}{
		{"spec.validate", p.validate},
		{"serve.generate", p.generate},
		{"engine.oracle", p.oracle},
		{"engine.run", p.engineRun},
		{"sim.calendar", p.calendar},
		{"cluster.pick", p.pick},
		{"kvcache.replay", p.kvcache},
		{"metrics.observe", p.observe},
		{"metrics.record", p.record},
		{"core.analyze", p.analyze},
		{"bench", p.artifacts},
	}
	for _, pr := range probes {
		if err := p.tr.span(pr.name, "probe", pr.fn); err != nil {
			return fmt.Errorf("probe %s: %w", pr.name, err)
		}
	}
	return nil
}

// timeMedian runs fn reps times and returns the median wall time.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// validate times loading the workload itself: parse, seed, validate.
func (p *prober) validate() error {
	d, err := timeMedian(validateReps, func() error {
		_, err := load(p.in)
		return err
	})
	p.m["spec.validate_us"] = us(d)
	return err
}

func (p *prober) generate() error {
	sw, err := serveWorkload(p.fleet.spec)
	if err != nil {
		return err
	}
	d, err := timeMedian(3, func() error {
		reqs, err := sw.Generate()
		p.reqs = reqs
		return err
	})
	p.m["serve.generate_ms"] = ms(d)
	return err
}

// oracle fills a fresh step-latency oracle per fleet platform over the
// grid batch ∈ {1, 2, 4, …, max_batch} × length ∈ {bucket, 2·bucket, …,
// 2048}, prefill and decode, then times the warm grid. The fleet pays
// the fill once per instance, because every instance builds its own
// oracle.
func (p *prober) oracle() error {
	bucket := p.base.LatencyBucket
	if bucket <= 0 {
		bucket = 64
	}
	var batches, lengths []int64
	for b := int64(1); b < int64(p.base.MaxBatch); b *= 2 {
		batches = append(batches, b)
	}
	batches = append(batches, int64(p.base.MaxBatch))
	for t := bucket; t <= oracleMaxTokens; t *= 2 {
		lengths = append(lengths, t)
	}
	sweep := func(sm *engine.StepModel) error {
		for _, b := range batches {
			for _, t := range lengths {
				if _, err := sm.Prefill(b, t); err != nil {
					return err
				}
				if _, err := sm.DecodeStep(b, t); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var keys, hits int
	var fill, hit time.Duration
	var fleetFill float64
	for _, g := range platformCounts(p.fleet.spec) {
		plat, err := hw.ByName(g.name)
		if err != nil {
			return err
		}
		sm, err := engine.NewStepModel(plat, p.base.Model, p.base.Mode, bucket)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := sweep(sm); err != nil {
			return err
		}
		d := time.Since(start)
		fill += d
		fleetFill += d.Seconds() * float64(g.count)
		keys += sm.CachedRuns()
		start = time.Now()
		for i := 0; i < oracleHitPasses; i++ {
			if err := sweep(sm); err != nil {
				return err
			}
		}
		hit += time.Since(start)
		hits += oracleHitPasses * 2 * len(batches) * len(lengths)
	}
	p.m["engine.oracle_keys"] = float64(keys)
	p.m["engine.oracle_miss_us"] = us(fill) / float64(keys)
	p.m["engine.oracle_hit_ns"] = float64(hit) / float64(hits)
	p.m["engine.oracle_fill_s"] = fleetFill
	return nil
}

// engineRun times engine.Run over the paper's grid: the Table III
// models on the evaluation platforms at batch 1 and 32, seq 512, eager.
func (p *prober) engineRun() error {
	start := time.Now()
	for _, m := range models.TableIIIModels() {
		for _, plat := range hw.EvaluationPlatforms() {
			for _, b := range []int64{1, 32} {
				if _, err := engine.Run(engine.Request{Platform: plat, Model: m, Batch: b, Seq: 512, Mode: engine.Eager}); err != nil {
					return err
				}
			}
		}
	}
	p.m["engine.run_ms"] = ms(time.Since(start))
	return nil
}

// calendar times Schedule+Step pairs on a calendar holding one pending
// event per fleet instance, the depth a fleet replay runs at.
func (p *prober) calendar() error {
	rng := rand.New(rand.NewSource(1))
	delays := make([]sim.Time, calendarOps)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Int63n(int64(sim.Second)))
	}
	noop := func(sim.Time) {}
	cal := sim.NewCalendar()
	for i := 0; i < p.fleet.instances(); i++ {
		cal.Schedule(delays[i], noop)
	}
	start := time.Now()
	for _, d := range delays {
		cal.Schedule(cal.Now()+d, noop)
		cal.Step()
	}
	p.m["sim.calendar_op_ns"] = float64(time.Since(start)) / calendarOps
	return nil
}

// pick times the workload's front-door routing policy over idle
// instances of its fleet (the prefill pool of a disaggregated fleet),
// once per request of the stream.
func (p *prober) pick() error {
	s := p.fleet.spec
	cal := sim.NewCalendar()
	var instances []*serve.Instance
	for _, g := range s.Fleet.Groups {
		if g.Role == "decode" {
			continue
		}
		plat, err := hw.ByName(g.Platform)
		if err != nil {
			return err
		}
		cfg := p.base
		cfg.Platform = plat
		for i := 0; i < g.Count; i++ {
			in, err := serve.NewInstance(fmt.Sprintf("%s-%d", plat.Name, i), cfg, cal)
			if err != nil {
				return err
			}
			instances = append(instances, in)
		}
	}
	name := s.Fleet.Router
	if d := s.Fleet.Disaggregation; d != nil {
		name = d.PrefillRouter
	}
	if name == "" {
		name = "least-queue"
	}
	policy, err := cluster.ParsePolicy(name)
	if err != nil {
		return err
	}
	rt := cluster.NewRouter(policy, s.Fleet.ShortPrompt)
	start := time.Now()
	for _, r := range p.reqs {
		if rt.Pick(r, instances) < 0 {
			return fmt.Errorf("request %d fits no instance", r.ID)
		}
	}
	p.m["cluster.pick_ns"] = float64(time.Since(start)) / float64(len(p.reqs))
	return nil
}

// kvcache replays the request stream through one cache — the
// workload's own, or the agentic_cache dimensions when it has none —
// keeping max_batch requests pinned at a time. Each call is timed on
// its own, so the figures include one clock read.
func (p *prober) kvcache() error {
	kvs := referenceKVCache
	if s := p.fleet.spec.Fleet.KVCache; s != nil {
		kvs = *s
	}
	cfg, err := kvConfig(kvs)
	if err != nil {
		return err
	}
	c, err := kvcache.New(kvcache.Config{
		BlockTokens: cfg.BlockTokens, DeviceBlocks: cfg.DeviceBlocks,
		HostSpillBlocks: cfg.HostSpillBlocks, Policy: cfg.Policy,
	})
	if err != nil {
		return err
	}
	type pin struct {
		session int64
		blocks  int
	}
	window := p.base.MaxBatch
	pins := make([]pin, window)
	var peek, acquire, release time.Duration
	releases := 0
	for i, r := range p.reqs {
		start := time.Now()
		c.Peek(r.SessionID, r.PromptLen)
		peek += time.Since(start)
		start = time.Now()
		g := c.Acquire(r.SessionID, r.PromptLen, false)
		acquire += time.Since(start)
		slot := &pins[i%window]
		if i >= window {
			start = time.Now()
			c.Release(slot.session, slot.blocks)
			release += time.Since(start)
			releases++
		}
		*slot = pin{r.SessionID, g.Pinned}
	}
	n := float64(len(p.reqs))
	p.m["kvcache.peek_ns"] = float64(peek) / n
	p.m["kvcache.acquire_ns"] = float64(acquire) / n
	p.m["kvcache.release_ns"] = float64(release) / float64(max(releases, 1))
	return nil
}

// observe replays the recorded event stream through a timeline
// aggregator configured as the workload's (or with 250 ms per-instance
// windows when it has none).
func (p *prober) observe() error {
	s := p.fleet.spec
	cfg := metrics.AggregatorConfig{
		Interval:         250 * sim.Millisecond,
		PerInstance:      true,
		SLO:              p.base.TTFTSLO,
		InitialInstances: p.fleet.instances(),
		FleetSeries:      true,
		TransferSeries:   s.Fleet.Disaggregation != nil,
		CacheSeries:      s.Fleet.KVCache != nil,
	}
	if o := s.Observability; o != nil && o.Timeline != nil {
		cfg.Interval = sim.Time(o.Timeline.IntervalMs * 1e6)
		cfg.PerInstance = o.Timeline.PerInstance
	}
	agg := metrics.NewAggregator(cfg)
	var horizon sim.Time
	start := time.Now()
	for _, e := range p.events {
		agg.Observe(e)
	}
	d := time.Since(start)
	for _, e := range p.events {
		horizon = sim.MaxTime(horizon, e.Time)
	}
	p.m["metrics.observe_ns"] = float64(d) / float64(max(len(p.events), 1))
	p.m["metrics.windows"] = float64(agg.Finish(horizon).Windows)
	return nil
}

// record times Histogram.Record over lognormal latencies around 25 ms.
func (p *prober) record() error {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, recordOps)
	for i := range vals {
		vals[i] = int64(math.Exp(17 + rng.NormFloat64()))
	}
	var h metrics.Histogram
	start := time.Now()
	for _, v := range vals {
		h.Record(v)
	}
	p.m["metrics.record_ns"] = float64(time.Since(start)) / recordOps
	return nil
}

// analyze times SKIP's trace analysis and the fusion recommender on one
// llama-3.2-1B prefill trace (GH200, batch 1, seq 512, eager).
func (p *prober) analyze() error {
	plat, err := hw.ByName("GH200")
	if err != nil {
		return err
	}
	m, err := models.ByName("llama-3.2-1B")
	if err != nil {
		return err
	}
	res, err := engine.Run(engine.Request{Platform: plat, Model: m, Batch: 1, Seq: 512, Mode: engine.Eager})
	if err != nil {
		return err
	}
	d, err := timeMedian(5, func() error {
		_, _, err := core.Analyze(res.Trace)
		return err
	})
	if err != nil {
		return err
	}
	p.m["core.analyze_ms"] = ms(d)
	d, err = timeMedian(3, func() error {
		_, err := fusion.Sweep(fusion.KernelSequence(res.Trace), fusion.StandardLengths())
		return err
	})
	p.m["fusion.recommend_ms"] = ms(d)
	return err
}

// artifacts times each paper artifact once, as its own span.
func (p *prober) artifacts() error {
	paper, err := load(inputs{Workload: "paper"})
	if err != nil {
		return err
	}
	for _, id := range paper.artifacts {
		start := time.Now()
		err := p.tr.span("bench."+id, "probe", func() error {
			_, err := (&workload{artifacts: []string{id}}).replay(nil)
			return err
		})
		if err != nil {
			return err
		}
		p.m["bench."+id+"_ms"] = ms(time.Since(start))
	}
	return nil
}

// baseConfig is the per-instance serving config the spec describes,
// with the spec's documented defaults (seq 512, max_batch 32) applied.
func baseConfig(s *spec.Spec) (serve.Config, error) {
	m, err := models.ByName(s.Model)
	if err != nil {
		return serve.Config{}, err
	}
	mode := engine.Eager
	if s.Mode != "" {
		if mode, err = engine.ParseMode(s.Mode); err != nil {
			return serve.Config{}, err
		}
	}
	var sv spec.ServeSpec
	if s.Serve != nil {
		sv = *s.Serve
	}
	policy := serve.ContinuousBatch
	if sv.Policy != "" {
		if policy, err = serve.ParsePolicy(sv.Policy); err != nil {
			return serve.Config{}, err
		}
	}
	cfg := serve.Config{
		Model: m, Mode: mode, Policy: policy,
		Seq: sv.Seq, MaxBatch: sv.MaxBatch, LatencyBucket: sv.LatencyBucket,
		KVMemoryUtil: sv.KVMemoryUtil, KVCapacityBytes: sv.KVCapacityBytes,
		TTFTSLO: sim.Time(sv.TTFTSLOMs * 1e6),
	}
	if cfg.Seq == 0 {
		cfg.Seq = 512
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 32
	}
	if kv := s.Fleet.KVCache; kv != nil {
		if cfg.KVCache, err = kvConfig(*kv); err != nil {
			return serve.Config{}, err
		}
	}
	return cfg, nil
}

func kvConfig(k spec.KVCacheSpec) (*serve.KVCacheConfig, error) {
	policy := kvcache.LRU
	if k.Policy != "" {
		var err error
		if policy, err = kvcache.ParsePolicy(k.Policy); err != nil {
			return nil, err
		}
	}
	return &serve.KVCacheConfig{
		BlockTokens: k.BlockTokens, DeviceBlocks: k.DeviceBlocks,
		HostSpillBlocks: k.HostSpillBlocks, Policy: policy,
	}, nil
}

// serveWorkload is the generator behind the spec's scenario workload.
func serveWorkload(s *spec.Spec) (serve.Workload, error) {
	ws := s.Workload
	scen, err := serve.ParseScenario(ws.Scenario)
	if err != nil {
		return serve.Workload{}, err
	}
	sw := serve.Workload{
		Scenario: scen, N: ws.Requests, RatePerSec: ws.RatePerSec, Seed: ws.Seed,
		Turns: ws.Turns, ContextGrowth: ws.ContextGrowth,
	}
	if d := ws.Prompt; d != nil {
		sw.Prompt = serve.LengthDist{Mean: d.Mean, Sigma: d.Sigma, Min: d.Min, Max: d.Max}
	}
	if d := ws.Output; d != nil {
		sw.Output = serve.LengthDist{Mean: d.Mean, Sigma: d.Sigma, Min: d.Min, Max: d.Max}
	}
	return sw, nil
}

type platformCount struct {
	name  string
	count int
}

// platformCounts lists the fleet's distinct platforms, in group order,
// with their initial instance counts.
func platformCounts(s *spec.Spec) []platformCount {
	var out []platformCount
	for _, g := range s.Fleet.Groups {
		found := false
		for i := range out {
			if out[i].name == g.Platform {
				out[i].count += g.Count
				found = true
			}
		}
		if !found {
			out = append(out, platformCount{g.Platform, g.Count})
		}
	}
	return out
}
