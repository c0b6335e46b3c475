package metrics

import (
	"fmt"
	"slices"
	"testing"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

func sample(t sim.Time, inst string, queue int, kv float64, lookups, hits int64) serve.Event {
	return serve.Event{Time: t, Type: serve.EventStateSample, Instance: inst,
		State: serve.StateSample{Queue: queue, KVFrac: kv, CacheLookups: lookups, CacheHits: hits}}
}

func seriesOf(t *testing.T, ss []Series, name string) []float64 {
	t.Helper()
	for _, s := range ss {
		if s.Name == name {
			return s.Values
		}
	}
	t.Fatalf("no %s series", name)
	return nil
}

// TestAggregatorLevelsAcrossDeparture: a departed instance's queue and
// KV levels leave the fleet sums and the KV mean's denominator, come
// back when it samples again, and its cumulative cache counters are
// differenced against what it reported before it left.
func TestAggregatorLevelsAcrossDeparture(t *testing.T) {
	a := NewAggregator(AggregatorConfig{Interval: sim.Second, PerInstance: true, CacheSeries: true})
	half := sim.Second / 2
	a.Observe(sample(0, "A", 2, 0.5, 10, 5))
	a.Observe(sample(0, "B", 4, 0.25, 20, 10))
	a.Observe(serve.Event{Time: half, Type: serve.EventInstanceGone, Instance: "B"})
	a.Observe(serve.Event{Time: half, Type: serve.EventInstanceGone, Instance: "B"}) // a second departure is a no-op
	a.Observe(sample(sim.Second, "B", 1, 0.75, 30, 20))
	tl := a.Finish(2 * sim.Second)

	checks := []struct {
		name string
		got  []float64
		want []float64
	}{
		// Window 0: 6 queued over the first half, 2 after B left.
		{"fleet queue_depth", seriesOf(t, tl.Fleet, "queue_depth"), []float64{4, 3}},
		// Mean of (0.5, 0.25), then A alone, then mean of (0.5, 0.75).
		{"fleet kv_occupancy", seriesOf(t, tl.Fleet, "kv_occupancy"), []float64{0.4375, 0.625}},
		// B's 20 earlier lookups stay counted: window 1 adds 10 lookups
		// and 10 hits, not 30 and 20.
		{"fleet cache_hit_rate", seriesOf(t, tl.Fleet, "cache_hit_rate"), []float64{0.5, 1}},
		{"B queue_depth", seriesOf(t, tl.Instances[1].Series, "queue_depth"), []float64{2, 1}},
		{"B kv_occupancy", seriesOf(t, tl.Instances[1].Series, "kv_occupancy"), []float64{0.125, 0.75}},
	}
	for _, c := range checks {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// warmStateSample returns one state sample's Observe on a warm
// aggregator with per-instance and cache series on: eight instances
// take turns sampling inside one long window, so every instance's
// levels entry, scope and window slots already exist.
func warmStateSample() (observe func(), a *Aggregator) {
	a = NewAggregator(AggregatorConfig{Interval: 3600 * sim.Second, PerInstance: true, CacheSeries: true, InitialInstances: 8})
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("inst#%d", i)
	}
	i := 0
	observe = func() {
		i++
		a.Observe(sample(sim.Time(i), names[i%len(names)], i%7, float64(i%100)/100, int64(i), int64(i/2)))
	}
	for range names {
		observe()
	}
	return observe, a
}

// BenchmarkAggregatorStateSample times one Observe of an
// EventStateSample on a warm aggregator (see warmStateSample).
func BenchmarkAggregatorStateSample(b *testing.B) {
	observe, _ := warmStateSample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe()
	}
}
