package metrics

import (
	"sort"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// The windowed fleet-timeline aggregator. It consumes the existing
// observer event stream — completions, first tokens, instance state
// samples, KV-transfer and membership events — and folds each into
// fixed-interval windows as it arrives, so a whole-run time series
// costs O(windows) memory regardless of request count. Counters
// (completions, tokens, SLO hits) attribute to the window containing
// the event; level signals (queue depth, KV occupancy, transfer
// backlog, fleet size) integrate piecewise-constant over time, so a
// window's value is the true time-weighted mean, not a point sample.

// Series is one named windowed series: Values[w] is the series value
// for window w. Times are reported in milliseconds (float), rates per
// second, fractions in [0,1].
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// InstanceSeries carries one instance's windowed series subset.
type InstanceSeries struct {
	Instance string   `json:"instance"`
	Series   []Series `json:"series"`
}

// Timeline is the finished windowed view of a run: exactly
// ceil(horizon/interval) windows, a fleet-merged series set, and —
// when per-instance aggregation was requested — one series subset per
// instance, sorted by name.
type Timeline struct {
	IntervalMs float64          `json:"interval_ms"`
	Windows    int              `json:"windows"`
	Fleet      []Series         `json:"fleet"`
	Instances  []InstanceSeries `json:"instances,omitempty"`
}

// Series returns the named fleet series (nil when absent).
func (t *Timeline) Series(name string) []float64 {
	if t == nil {
		return nil
	}
	for _, s := range t.Fleet {
		if s.Name == name {
			return s.Values
		}
	}
	return nil
}

// AggregatorConfig parameterizes a timeline aggregation.
type AggregatorConfig struct {
	// Interval is the window width. Required, positive.
	Interval sim.Time
	// PerInstance additionally keeps a per-instance series subset for
	// every named instance seen in the stream.
	PerInstance bool
	// SLO is the TTFT objective goodput windows count against (0: no
	// SLO; goodput == throughput and attainment is 1).
	SLO sim.Time
	// InitialInstances seeds the active-fleet-size level: instances
	// present at t=0 emit no join event.
	InitialInstances int
	// FleetSeries includes the active_instances series (fleet kinds).
	FleetSeries bool
	// TransferSeries includes the transfer_backlog series (disagg).
	TransferSeries bool
	// CacheSeries includes the cache_hit_rate series (prefix cache on).
	CacheSeries bool
}

// integrator accumulates ∫ level dt per window for a piecewise-constant
// level signal. Set levels through advance-then-set so each constant
// stretch lands in the windows it actually spans.
type integrator struct {
	lastT    sim.Time
	level    float64
	integral []float64
}

func (g *integrator) advance(t, interval sim.Time) {
	for g.lastT < t {
		w := int(g.lastT / interval)
		end := sim.Time(w+1) * interval
		if end > t {
			end = t
		}
		for len(g.integral) <= w {
			g.integral = append(g.integral, 0)
		}
		g.integral[w] += float64(g.level * float64(end-g.lastT))
		g.lastT = end
	}
}

func (g *integrator) set(t, interval sim.Time, level float64) {
	g.advance(t, interval)
	g.level = level
}

// windowCounts is a growable per-window int64 counter.
type windowCounts []int64

func (c *windowCounts) add(w int, v int64) {
	for len(*c) <= w {
		*c = append(*c, 0)
	}
	(*c)[w] += v
}

// scopeState accumulates one scope's (the fleet's, or one instance's)
// windowed state.
type scopeState struct {
	completed windowCounts
	sloMet    windowCounts
	tokens    windowCounts
	ttft      []*Histogram
	tpot      []*Histogram
	queue     integrator
	kv        integrator
	// cacheLookups / cacheHits hold the latest cumulative cache
	// counters seen in each window (-1: no sample); Finish forward-fills
	// and differences them into per-window hit rates.
	cacheLookups windowCounts
	cacheHits    windowCounts
	cacheSeen    []bool
}

func (s *scopeState) hist(hs *[]*Histogram, w int) *Histogram {
	for len(*hs) <= w {
		*hs = append(*hs, nil)
	}
	if (*hs)[w] == nil {
		(*hs)[w] = &Histogram{}
	}
	return (*hs)[w]
}

func (s *scopeState) cacheSample(w int, lookups, hits int64) {
	for len(s.cacheSeen) <= w {
		s.cacheSeen = append(s.cacheSeen, false)
	}
	s.cacheLookups.add(w, 0)
	s.cacheHits.add(w, 0)
	s.cacheLookups[w] = lookups
	s.cacheHits[w] = hits
	s.cacheSeen[w] = true
}

// Aggregator folds an observer event stream into a windowed Timeline.
// It is deterministic: for a fixed spec and seed the event stream —
// order included — is deterministic, and every aggregation step is
// exact integer or order-independent float arithmetic, so two runs
// produce byte-identical timelines. Not safe for concurrent use; wire
// it into a single simulation's observer chain.
type Aggregator struct {
	cfg       AggregatorConfig
	fleet     scopeState
	instances map[string]*scopeState
	// active / transfers are fleet-level level signals driven by
	// membership and transfer events.
	active    integrator
	transfers integrator
	nTransfer int
	// Per-instance latest state, plus running fleet sums maintained
	// incrementally (one delta per sample, in event order) so the
	// fleet-level levels are bit-deterministic — summing a map each
	// sample would add floats in random iteration order. live counts
	// the levels entries that are live (the KV mean's denominator).
	levels      map[string]*instLevel
	live        int
	qSum, kvSum float64
	cacheL      int64
	cacheH      int64
}

// instLevel is one instance's latest state sample: its queue and KV
// levels (zero once it has departed), its cumulative cache counters
// (kept across departure — that history happened), and its timeline
// scope (nil when per-instance series are off). One map lookup per
// sample finds all of it.
type instLevel struct {
	queue, kv     float64
	live          bool
	lookups, hits int64
	scope         *scopeState
}

// NewAggregator builds an aggregator for one simulation run.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	a := &Aggregator{
		cfg:       cfg,
		instances: make(map[string]*scopeState),
		levels:    make(map[string]*instLevel),
	}
	a.active.level = float64(cfg.InitialInstances)
	return a
}

func (a *Aggregator) window(t sim.Time) int {
	return int(t / a.cfg.Interval)
}

func (a *Aggregator) scope(instance string) *scopeState {
	if !a.cfg.PerInstance || instance == "" {
		return nil
	}
	s, ok := a.instances[instance]
	if !ok {
		s = &scopeState{}
		a.instances[instance] = s
	}
	return s
}

// Observe consumes one simulation event. Install it on the observer
// chain of the run being timed.
func (a *Aggregator) Observe(e serve.Event) {
	switch e.Type {
	case serve.EventFirstToken:
		w := a.window(e.Time)
		a.fleet.hist(&a.fleet.ttft, w).Record(int64(e.TTFT))
		if s := a.scope(e.Instance); s != nil {
			s.hist(&s.ttft, w).Record(int64(e.TTFT))
		}
	case serve.EventCompleted:
		w := a.window(e.Time)
		met := int64(0)
		if a.cfg.SLO <= 0 || e.TTFT <= a.cfg.SLO {
			met = 1
		}
		a.fleet.completed.add(w, 1)
		a.fleet.sloMet.add(w, met)
		a.fleet.tokens.add(w, e.Tokens)
		if e.TPOT > 0 {
			a.fleet.hist(&a.fleet.tpot, w).Record(int64(e.TPOT))
		}
		if s := a.scope(e.Instance); s != nil {
			s.completed.add(w, 1)
			s.sloMet.add(w, met)
			s.tokens.add(w, e.Tokens)
			if e.TPOT > 0 {
				s.hist(&s.tpot, w).Record(int64(e.TPOT))
			}
		}
	case serve.EventStateSample:
		a.stateSample(e)
	case serve.EventKVTransferStart:
		a.nTransfer++
		a.transfers.set(e.Time, a.cfg.Interval, float64(a.nTransfer))
	case serve.EventKVTransferDone:
		a.nTransfer--
		a.transfers.set(e.Time, a.cfg.Interval, float64(a.nTransfer))
	case serve.EventInstanceJoin:
		a.active.set(e.Time, a.cfg.Interval, a.active.level+1)
	case serve.EventInstanceGone:
		a.active.set(e.Time, a.cfg.Interval, a.active.level-1)
		a.dropInstanceState(e.Time, e.Instance)
	}
}

func (a *Aggregator) stateSample(e serve.Event) {
	st := &e.State
	key := e.Instance // "" for single-instance runs: one implicit scope
	lv := a.levels[key]
	if lv == nil {
		lv = &instLevel{scope: a.scope(key)}
		a.levels[key] = lv
	}
	if !lv.live {
		lv.live = true
		a.live++
	}
	a.qSum += float64(st.Queue) - lv.queue
	a.kvSum += st.KVFrac - lv.kv
	lv.queue = float64(st.Queue)
	lv.kv = st.KVFrac
	a.cacheL += st.CacheLookups - lv.lookups
	a.cacheH += st.CacheHits - lv.hits
	lv.lookups, lv.hits = st.CacheLookups, st.CacheHits
	a.fleet.queue.set(e.Time, a.cfg.Interval, a.qSum)
	a.fleet.kv.set(e.Time, a.cfg.Interval, a.kvSum/float64(a.live))
	w := a.window(e.Time)
	a.fleet.cacheSample(w, a.cacheL, a.cacheH)
	if s := lv.scope; s != nil {
		s.queue.set(e.Time, a.cfg.Interval, float64(st.Queue))
		s.kv.set(e.Time, a.cfg.Interval, st.KVFrac)
		s.cacheSample(w, st.CacheLookups, st.CacheHits)
	}
}

// dropInstanceState removes a departed instance's contribution to the
// fleet queue and KV levels: its waiting requests were requeued (or
// dropped) and its KV is gone, so its own scope's levels fall to zero
// too. Its cumulative cache counters stay in the fleet total — that
// history happened.
func (a *Aggregator) dropInstanceState(t sim.Time, instance string) {
	lv := a.levels[instance]
	if lv == nil || !lv.live {
		return
	}
	a.qSum -= lv.queue
	a.kvSum -= lv.kv
	lv.queue, lv.kv, lv.live = 0, 0, false
	a.live--
	a.fleet.queue.set(t, a.cfg.Interval, a.qSum)
	level := 0.0
	if a.live > 0 {
		level = a.kvSum / float64(a.live)
	}
	a.fleet.kv.set(t, a.cfg.Interval, level)
	if s := lv.scope; s != nil {
		s.queue.set(t, a.cfg.Interval, 0)
		s.kv.set(t, a.cfg.Interval, 0)
	}
}

// windowSeconds is window w's true duration in seconds (the last
// window may be partial).
func windowSeconds(w, n int, interval, horizon sim.Time) float64 {
	start := sim.Time(w) * interval
	end := start + interval
	if w == n-1 && horizon > start && horizon < end {
		end = horizon
	}
	return (end - start).Seconds()
}

// Finish closes the aggregation at the run's horizon and assembles the
// Timeline: exactly ceil(horizon/interval) windows (at least one),
// with any event landing at or past the horizon folded into the last
// window.
func (a *Aggregator) Finish(horizon sim.Time) *Timeline {
	interval := a.cfg.Interval
	n := int((horizon + interval - 1) / interval)
	if n < 1 {
		n = 1
	}
	// Integrate every level signal out to the horizon (not the window
	// end): the last window's mean divides by its true, possibly
	// partial, duration.
	a.fleet.queue.advance(horizon, interval)
	a.fleet.kv.advance(horizon, interval)
	a.active.advance(horizon, interval)
	a.transfers.advance(horizon, interval)
	names := make([]string, 0, len(a.instances))
	for name := range a.instances {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := a.instances[name]
		s.queue.advance(horizon, interval)
		s.kv.advance(horizon, interval)
	}

	tl := &Timeline{
		IntervalMs: float64(interval) / 1e6,
		Windows:    n,
	}
	tl.Fleet = a.fleetSeries(n, horizon)
	if a.cfg.PerInstance {
		for _, name := range names {
			tl.Instances = append(tl.Instances, InstanceSeries{
				Instance: name,
				Series:   a.instanceSeries(a.instances[name], n, horizon),
			})
		}
	}
	return tl
}

// fold truncates a per-raw-window counter to n windows, folding any
// tail into window n-1.
func fold(c windowCounts, n int) []int64 {
	out := make([]int64, n)
	for w, v := range c {
		if w >= n {
			w = n - 1
		}
		out[w] += v
	}
	return out
}

// foldHists folds per-raw-window histograms to n windows. Windows
// below n pass through by pointer; a tail past n merges into a copy of
// window n-1, so the aggregator's own histograms are never mutated.
func foldHists(hs []*Histogram, n int) []*Histogram {
	out := make([]*Histogram, n)
	copy(out, hs)
	if len(hs) <= n {
		return out
	}
	last := &Histogram{}
	last.Merge(out[n-1])
	for _, h := range hs[n:] {
		last.Merge(h)
	}
	out[n-1] = last
	return out
}

// foldIntegral averages an integrator's per-window integrals over each
// window's true duration, folding any tail integral into the last
// window.
func foldIntegral(g *integrator, n int, interval, horizon sim.Time) []float64 {
	out := make([]float64, n)
	for w, v := range g.integral {
		i := w
		if i >= n {
			i = n - 1
		}
		out[i] += v
	}
	for w := range out {
		if sec := windowSeconds(w, n, interval, horizon); sec > 0 {
			out[w] /= sec * 1e9 // integral is in level-ns
		}
	}
	return out
}

func histQuantileMs(hs []*Histogram, w int, p float64) float64 {
	if hs[w] == nil {
		return 0
	}
	return float64(hs[w].Quantile(p)) / 1e6
}

func (a *Aggregator) fleetSeries(n int, horizon sim.Time) []Series {
	interval := a.cfg.Interval
	completed := fold(a.fleet.completed, n)
	sloMet := fold(a.fleet.sloMet, n)
	tokens := fold(a.fleet.tokens, n)
	ttft := foldHists(a.fleet.ttft, n)
	tpot := foldHists(a.fleet.tpot, n)

	mk := func(name string, f func(w int) float64) Series {
		vals := make([]float64, n)
		for w := range vals {
			vals[w] = f(w)
		}
		return Series{Name: name, Values: vals}
	}
	sec := func(w int) float64 { return windowSeconds(w, n, interval, horizon) }

	out := []Series{
		mk("completed", func(w int) float64 { return float64(completed[w]) }),
		mk("throughput_rps", func(w int) float64 { return float64(completed[w]) / sec(w) }),
		mk("goodput_rps", func(w int) float64 { return float64(sloMet[w]) / sec(w) }),
		mk("slo_attainment", func(w int) float64 {
			if completed[w] == 0 {
				if a.cfg.SLO > 0 {
					return 0
				}
				return 1
			}
			return float64(sloMet[w]) / float64(completed[w])
		}),
		mk("ttft_p50_ms", func(w int) float64 { return histQuantileMs(ttft, w, 50) }),
		mk("ttft_p90_ms", func(w int) float64 { return histQuantileMs(ttft, w, 90) }),
		mk("ttft_p99_ms", func(w int) float64 { return histQuantileMs(ttft, w, 99) }),
		mk("ttft_mean_ms", func(w int) float64 {
			if ttft[w] == nil {
				return 0
			}
			return ttft[w].Mean() / 1e6
		}),
		mk("ttft_max_ms", func(w int) float64 {
			if ttft[w] == nil {
				return 0
			}
			return float64(ttft[w].Max()) / 1e6
		}),
		mk("tpot_p50_ms", func(w int) float64 { return histQuantileMs(tpot, w, 50) }),
		mk("tpot_p90_ms", func(w int) float64 { return histQuantileMs(tpot, w, 90) }),
		mk("tpot_p99_ms", func(w int) float64 { return histQuantileMs(tpot, w, 99) }),
		mk("tokens_per_sec", func(w int) float64 { return float64(tokens[w]) / sec(w) }),
	}
	queue := foldIntegral(&a.fleet.queue, n, interval, horizon)
	kv := foldIntegral(&a.fleet.kv, n, interval, horizon)
	out = append(out,
		Series{Name: "queue_depth", Values: queue},
		Series{Name: "kv_occupancy", Values: kv},
	)
	if a.cfg.FleetSeries {
		out = append(out, Series{Name: "active_instances", Values: foldIntegral(&a.active, n, interval, horizon)})
	}
	if a.cfg.TransferSeries {
		out = append(out, Series{Name: "transfer_backlog", Values: foldIntegral(&a.transfers, n, interval, horizon)})
	}
	if a.cfg.CacheSeries {
		out = append(out, Series{Name: "cache_hit_rate", Values: cacheRates(&a.fleet, n)})
	}
	return out
}

func (a *Aggregator) instanceSeries(s *scopeState, n int, horizon sim.Time) []Series {
	interval := a.cfg.Interval
	completed := fold(s.completed, n)
	tokens := fold(s.tokens, n)
	ttft := foldHists(s.ttft, n)
	tpot := foldHists(s.tpot, n)
	mk := func(name string, f func(w int) float64) Series {
		vals := make([]float64, n)
		for w := range vals {
			vals[w] = f(w)
		}
		return Series{Name: name, Values: vals}
	}
	sec := func(w int) float64 { return windowSeconds(w, n, interval, horizon) }
	out := []Series{
		mk("completed", func(w int) float64 { return float64(completed[w]) }),
		mk("throughput_rps", func(w int) float64 { return float64(completed[w]) / sec(w) }),
		mk("ttft_p50_ms", func(w int) float64 { return histQuantileMs(ttft, w, 50) }),
		mk("ttft_p99_ms", func(w int) float64 { return histQuantileMs(ttft, w, 99) }),
		mk("tpot_p50_ms", func(w int) float64 { return histQuantileMs(tpot, w, 50) }),
		mk("tokens_per_sec", func(w int) float64 { return float64(tokens[w]) / sec(w) }),
		Series{Name: "queue_depth", Values: foldIntegral(&s.queue, n, interval, horizon)},
		Series{Name: "kv_occupancy", Values: foldIntegral(&s.kv, n, interval, horizon)},
	}
	if a.cfg.CacheSeries {
		out = append(out, Series{Name: "cache_hit_rate", Values: cacheRates(s, n)})
	}
	return out
}

// cacheRates turns the per-window cumulative cache counters into
// per-window hit rates: forward-fill the cumulative counts across
// sampleless windows, then difference adjacent windows. A window with
// no lookups reports rate 0.
func cacheRates(s *scopeState, n int) []float64 {
	lookups := make([]int64, n)
	hits := make([]int64, n)
	var curL, curH int64
	for w := 0; w < n; w++ {
		if w < len(s.cacheSeen) && s.cacheSeen[w] {
			curL, curH = s.cacheLookups[w], s.cacheHits[w]
		}
		lookups[w], hits[w] = curL, curH
	}
	// Cumulative tails past n fold into the last window.
	for w := n; w < len(s.cacheSeen); w++ {
		if s.cacheSeen[w] {
			lookups[n-1], hits[n-1] = s.cacheLookups[w], s.cacheHits[w]
		}
	}
	out := make([]float64, n)
	var prevL, prevH int64
	for w := 0; w < n; w++ {
		dl, dh := lookups[w]-prevL, hits[w]-prevH
		if dl > 0 {
			out[w] = float64(dh) / float64(dl)
		}
		prevL, prevH = lookups[w], hits[w]
	}
	return out
}
