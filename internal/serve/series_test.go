package serve

import (
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
