package serve

import (
	"math"
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

// TestStateSeriesChunkBoundaries: split returns every point in
// insertion order, split into the two series, at and around each chunk
// boundary (the first chunk, the doubling chunks and the capped ones),
// and nil for an empty buffer.
func TestStateSeriesChunkBoundaries(t *testing.T) {
	var empty stateSeries
	if q, kv := empty.split(); q != nil || kv != nil {
		t.Fatalf("empty buffer split into %v, %v; want nil, nil", q, kv)
	}

	// Chunk boundaries by the growth rule: 32, 64, ..., 4096, then
	// 4096 at a time; check three capped chunks past the last doubling.
	var bounds []int
	total, size := 0, seriesFirstChunk
	for capped := 0; capped < 3; {
		total += size
		bounds = append(bounds, total)
		if size == seriesMaxChunk {
			capped++
		}
		size = min(2*size, seriesMaxChunk)
	}
	want := map[int]bool{}
	for _, b := range bounds {
		want[b-1], want[b], want[b+1] = true, true, true
	}

	var ss stateSeries
	check := func(n int) {
		q, kv := ss.split()
		if len(q) != n || len(kv) != n || cap(q) != n || cap(kv) != n {
			t.Fatalf("%d points split into len %d/%d cap %d/%d, want exact length %d",
				n, len(q), len(kv), cap(q), cap(kv), n)
		}
		for i := 0; i < n; i++ {
			at := sim.Time(i)
			if q[i] != (SamplePoint{T: at, V: float64(2 * i)}) || kv[i] != (SamplePoint{T: at, V: float64(i) / 4}) {
				t.Fatalf("%d points: point %d split into %+v / %+v", n, i, q[i], kv[i])
			}
		}
	}
	last := bounds[len(bounds)-1] + 1
	for i := 0; i < last; i++ {
		ss.add(sim.Time(i), float64(2*i), float64(i)/4)
		if want[i+1] {
			check(i + 1)
		}
	}
	for _, c := range ss.chunks[:len(ss.chunks)-1] {
		if len(c) != cap(c) || cap(c) > seriesMaxChunk {
			t.Fatalf("a full chunk holds %d of %d points (cap %d)", len(c), cap(c), seriesMaxChunk)
		}
	}
}

// TestStateWindowMatchesIntegratedSeries: with StateWindow w the
// QueueDepth/KVOccupancy series carry one time-weighted mean point per
// window. Each must equal the per-event step series of the same run
// (StateWindow 0) integrated over that window: full windows end at
// k·w, and the final partial window closes at the last sample. The
// windows are chosen so some hold no scheduling event at all and the
// last one is partial.
func TestStateWindowMatchesIntegratedSeries(t *testing.T) {
	reqs, err := PoissonArrivals(60, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := contConfig()
	cfg.MaxBatch = 4
	cfg.DefaultOutputLen = 24
	raw, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if raw.MaxQueueDepth == 0 {
		t.Fatal("the queue never built up; the check would only see zeros")
	}
	for _, w := range []sim.Time{sim.Millisecond / 3, 7 * sim.Millisecond} {
		cfg.StateWindow = w
		win, err := Simulate(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			name     string
			raw, win []SamplePoint
		}{
			{"QueueDepth", raw.QueueDepth, win.QueueDepth},
			{"KVOccupancy", raw.KVOccupancy, win.KVOccupancy},
		} {
			want := windowMeans(s.raw, w)
			if len(s.win) != len(want) {
				t.Fatalf("window %v: %s has %d points, want %d", w, s.name, len(s.win), len(want))
			}
			if last := s.raw[len(s.raw)-1].T; last%w == 0 {
				t.Fatalf("window %v divides the last sample time %v; pick one that leaves a partial window", w, last)
			}
			for i, p := range want {
				got := s.win[i]
				if got.T != p.T || math.Abs(got.V-p.V) > 1e-9*math.Max(math.Abs(got.V), math.Abs(p.V)) {
					t.Fatalf("window %v: %s point %d = %+v, want %+v", w, s.name, i, got, p)
				}
			}
		}
	}
}

// windowMeans integrates a per-event step series — each point's value
// holds from its time until the next point's, and the level before the
// first point is zero — over consecutive windows of width w starting
// at 0, closing the last, partial window at the final point's time.
func windowMeans(series []SamplePoint, w sim.Time) []SamplePoint {
	end := series[len(series)-1].T
	var out []SamplePoint
	for start := sim.Time(0); start < end; start += w {
		stop := min(start+w, end)
		var sum float64
		level, t := 0.0, start
		for _, p := range series {
			if p.T > stop {
				break
			}
			if p.T > t {
				sum += level * float64(p.T-t)
				t = p.T
			}
			level = p.V
		}
		sum += level * float64(stop-t)
		out = append(out, SamplePoint{T: stop, V: sum / float64(stop-start)})
	}
	return out
}
