package serve

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []sim.Time{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want sim.Time
	}{
		{50, 50},   // rank ceil(5) = 5
		{95, 100},  // rank ceil(9.5) = 10
		{99, 100},  // rank ceil(9.9) = 10
		{100, 100}, // rank 10
		{10, 10},   // rank 1
		{1, 10},    // rank ceil(0.1) = 1
	}
	for _, c := range cases {
		if got := Percentile(samples, c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSmallSamples(t *testing.T) {
	// The legacy index (len*95)/100 read element 0 of a 1-element slice
	// for P95 but overflowed in spirit for other small n; nearest-rank
	// must stay in bounds and return the max for high percentiles.
	if got := Percentile([]sim.Time{7}, 95); got != 7 {
		t.Errorf("P95 of singleton = %v, want 7", got)
	}
	if got := Percentile([]sim.Time{3, 9}, 95); got != 9 {
		t.Errorf("P95 of pair = %v, want 9", got)
	}
	if got := Percentile([]sim.Time{3, 9}, 50); got != 3 {
		t.Errorf("P50 of pair = %v, want 3 (nearest rank 1)", got)
	}
	if got := Percentile(nil, 95); got != 0 {
		t.Errorf("P95 of empty = %v, want 0", got)
	}
}

// TestSLOGoodputNoSamples: with an SLO configured and zero completed
// requests, attainment must be 0, not a vacuous 100% — a fleet that
// rejected or abandoned everything did not meet its objective. Without
// an SLO the no-SLO identity (full attainment, goodput == throughput)
// still holds for any sample count.
func TestSLOGoodputNoSamples(t *testing.T) {
	att, good := SLOGoodput(nil, 500*sim.Millisecond, 10*sim.Second, 0)
	if att != 0 || good != 0 {
		t.Errorf("SLO set, no samples: attainment %g goodput %g, want 0 and 0", att, good)
	}
	att, good = SLOGoodput(nil, 0, 10*sim.Second, 3.5)
	if att != 1 || good != 3.5 {
		t.Errorf("no SLO, no samples: attainment %g goodput %g, want 1 and throughput", att, good)
	}
	att, good = SLOGoodput([]sim.Time{100 * sim.Millisecond, sim.Second},
		500*sim.Millisecond, 10*sim.Second, 0.2)
	if att != 0.5 || good != 0.1 {
		t.Errorf("half in SLO: attainment %g goodput %g, want 0.5 and 0.1", att, good)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	samples := []sim.Time{90, 10, 50, 30, 70}
	if got := Percentile(samples, 50); got != 50 {
		t.Errorf("P50 = %v, want 50", got)
	}
	// The input slice must not be reordered.
	if samples[0] != 90 || samples[4] != 70 {
		t.Error("Percentile mutated its input")
	}
}

// TestSummarizeLatencyMatchesReference checks the one latency
// summarizer against Percentile and a plain mean and max, on shuffled
// inputs of several sizes, the empty set included.
func TestSummarizeLatencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 101} {
		sets := make([][]sim.Time, 3)
		for i := range sets {
			for j := 0; j < n; j++ {
				sets[i] = append(sets[i], sim.Time(rng.Int63n(1e9)))
			}
		}
		ref := func(ts []sim.Time) (mean, max sim.Time) {
			for _, t := range ts {
				mean += t
				if t > max {
					max = t
				}
			}
			if len(ts) > 0 {
				mean /= sim.Time(len(ts))
			}
			return mean, max
		}
		tm, tx := ref(sets[0])
		pm, _ := ref(sets[1])
		em, ex := ref(sets[2])
		want := Latency{
			MeanTTFT: tm, P50TTFT: Percentile(sets[0], 50), P95TTFT: Percentile(sets[0], 95),
			P99TTFT: Percentile(sets[0], 99), MaxTTFT: tx,
			MeanTPOT: pm, P50TPOT: Percentile(sets[1], 50), P95TPOT: Percentile(sets[1], 95),
			MeanE2E: em, P50E2E: Percentile(sets[2], 50), P95E2E: Percentile(sets[2], 95), MaxE2E: ex,
		}
		if got := SummarizeLatency(sets[0], sets[1], sets[2]); got != want {
			t.Errorf("n=%d: SummarizeLatency = %+v, want %+v", n, got, want)
		}
		for i, ts := range sets {
			if !slices.IsSorted(ts) {
				t.Errorf("n=%d: sample set %d not sorted in place", n, i)
			}
		}
	}
}
