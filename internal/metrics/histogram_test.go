package metrics

import (
	"testing"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// lcg is a tiny deterministic generator so the test needs no seed
// plumbing.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// TestQuantileMatchesExactPercentile records a skewed sample set into
// both the streaming histogram and a plain slice, then checks every
// interesting quantile against the exact nearest-rank percentile within
// the histogram's bucket resolution (~3.2% relative, halved by midpoint
// representatives — allow the full 3.2% plus slack for the rank-vs-rank
// off-by-one at bucket edges).
func TestQuantileMatchesExactPercentile(t *testing.T) {
	var h Histogram
	var exact []sim.Time
	var r lcg
	for i := 0; i < 20000; i++ {
		// Log-uniform-ish spread: microseconds to tens of seconds.
		shift := r.next() % 35
		v := int64(r.next()%1000+1) << shift
		h.Record(v)
		exact = append(exact, sim.Time(v))
	}
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		want := float64(serve.Percentile(exact, p))
		got := float64(h.Quantile(p))
		if want == 0 {
			t.Fatalf("p%v: exact percentile is 0, bad test data", p)
		}
		rel := (got - want) / want
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.04 {
			t.Errorf("p%v: histogram %v vs exact %v (relative error %.4f > 0.04)", p, got, want, rel)
		}
	}
}

func TestSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	// Values below 2*subBuckets land in unit-width buckets: quantiles
	// are exact.
	if got := h.Quantile(50); got != 31 {
		t.Errorf("p50 of 0..63 = %d, want 31", got)
	}
	if got := h.Quantile(100); got != 63 {
		t.Errorf("p100 of 0..63 = %d, want 63", got)
	}
	if h.Max() != 63 {
		t.Errorf("max = %d, want 63", h.Max())
	}
	if got := h.Mean(); got != 31.5 {
		t.Errorf("mean = %v, want 31.5", got)
	}
}

func TestRecordClampsAndCounts(t *testing.T) {
	var h Histogram
	h.Record(-5)
	h.Record(0)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if h.Quantile(100) != 0 {
		t.Errorf("negative values should clamp to 0")
	}
	var empty Histogram
	if empty.Quantile(50) != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Errorf("empty histogram should report zeros")
	}
}

func TestMergeEquivalentToCombinedRecording(t *testing.T) {
	var a, b, both Histogram
	var r lcg
	for i := 0; i < 5000; i++ {
		v := int64(r.next() % 1e9)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(&b)
	if a.Count() != both.Count() {
		t.Fatalf("merged count %d != combined %d", a.Count(), both.Count())
	}
	if a.Mean() != both.Mean() || a.Max() != both.Max() {
		t.Errorf("merged mean/max (%v, %d) != combined (%v, %d)", a.Mean(), a.Max(), both.Mean(), both.Max())
	}
	for _, p := range []float64{25, 50, 75, 99} {
		if a.Quantile(p) != both.Quantile(p) {
			t.Errorf("p%v: merged %d != combined %d", p, a.Quantile(p), both.Quantile(p))
		}
	}
}

// TestBucketRoundTrip checks the index/representative math across the
// full int64 range: every value's representative must land in the same
// bucket and within the guaranteed relative error.
func TestBucketRoundTrip(t *testing.T) {
	var r lcg
	check := func(v int64) {
		idx := bucketIndex(v)
		rep := bucketValue(idx)
		if bucketIndex(rep) != idx {
			t.Fatalf("value %d: representative %d maps to bucket %d, want %d", v, rep, bucketIndex(rep), idx)
		}
		if v >= 64 {
			rel := float64(rep-v) / float64(v)
			if rel < 0 {
				rel = -rel
			}
			if rel > 1.0/32 {
				t.Fatalf("value %d: representative %d off by %.4f (> 1/32)", v, rep, rel)
			}
		} else if rep != v {
			t.Fatalf("small value %d: representative %d, want exact", v, rep)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 100000; i++ {
		check(int64(r.next() >> 1)) // any non-negative int64
	}
	check(1<<63 - 1)
}

// BenchmarkHistogramRecord times one Record of a latency-like sample:
// a 1000–1999 ns mantissa scaled by 2^0…2^19, so samples spread
// log-uniformly from 1µs to ~1s of virtual time.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	r := lcg(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.next()
		h.Record(int64(1000+(v>>40)%1000) << (v % 20))
	}
	recorded = h.Count()
}

// recorded keeps the benchmark's histogram live.
var recorded uint64
