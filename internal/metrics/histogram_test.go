package metrics

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

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

// denseHist is the reference histogram: the same bucket layout and
// nearest-rank rule as Histogram, over one dense array of every bucket.
type denseHist struct {
	counts [histBucketsLen]uint64
	count  uint64
	sum    int64
	max    int64
}

func (h *denseHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *denseHist) merge(o *denseHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *denseHist) quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(float64(h.count) * p / 100)
	if float64(rank) < float64(h.count)*p/100 {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketValue(i)
		}
	}
	return h.max
}

// sameAsDense checks h against the dense reference bucket for bucket,
// then on every summary the timeline reads.
func sameAsDense(t *testing.T, label string, h *Histogram, d *denseHist) {
	t.Helper()
	for i := 0; i < histBucketsLen; i++ {
		var got uint64
		if row := h.rows[i/subBuckets]; row != nil {
			got = row[i%subBuckets]
		}
		if got != d.counts[i] {
			t.Fatalf("%s: bucket %d holds %d, dense %d", label, i, got, d.counts[i])
		}
	}
	if h.Count() != d.count || h.Max() != d.max {
		t.Fatalf("%s: count/max (%d, %d), dense (%d, %d)", label, h.Count(), h.Max(), d.count, d.max)
	}
	var dmean float64
	if d.count > 0 {
		dmean = float64(d.sum) / float64(d.count)
	}
	if h.Mean() != dmean {
		t.Fatalf("%s: mean %v, dense %v", label, h.Mean(), dmean)
	}
	for _, p := range []float64{0.1, 1, 50, 90, 99, 99.9, 100} {
		if got, want := h.Quantile(p), d.quantile(p); got != want {
			t.Fatalf("%s: p%v = %d, dense %d", label, p, got, want)
		}
	}
}

// TestSparseMatchesDense: the sparse rows must hold exactly what the
// dense layout would, over random and extreme samples (the unit/log
// boundary at 31/32, zero, the int64 maximum) and across chained
// merges that include empty and zero-value operands.
func TestSparseMatchesDense(t *testing.T) {
	var r lcg = 7
	sample := func(i int) int64 {
		switch i % 11 {
		case 0:
			return 0
		case 1:
			return 31
		case 2:
			return 32
		case 3:
			return math.MaxInt64
		case 4:
			return -int64(r.next() % 100) // clamps to zero
		case 5:
			return int64(r.next() >> 1) // anywhere in int64
		default:
			return int64(r.next()%1000+1) << (r.next() % 40)
		}
	}
	const parts = 6
	var hs [parts]Histogram
	var ds [parts]denseHist
	for p := 0; p < parts; p++ {
		if p == 2 {
			continue // one part stays empty
		}
		for i := 0; i < 500*(p+1); i++ {
			v := sample(i + p)
			hs[p].Record(v)
			ds[p].record(v)
		}
		sameAsDense(t, fmt.Sprintf("part %d", p), &hs[p], &ds[p])
	}

	var acc Histogram
	var dacc denseHist
	acc.Merge(nil)
	acc.Merge(&Histogram{})
	sameAsDense(t, "zero value after empty merges", &acc, &dacc)
	for p := 0; p < parts; p++ {
		acc.Merge(&hs[p])
		dacc.merge(&ds[p])
		sameAsDense(t, fmt.Sprintf("chained merge through part %d", p), &acc, &dacc)
	}
	var into Histogram
	into.Merge(&acc)
	sameAsDense(t, "merge into a zero value", &into, &dacc)
	acc.Record(5) // a merged copy must not share rows with its source
	sameAsDense(t, "merged copy after its source records", &into, &dacc)

	if size := unsafe.Sizeof(Histogram{}); size > 1024 {
		t.Errorf("Histogram is %d bytes, want at most 1 KiB", size)
	}
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
