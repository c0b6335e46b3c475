package serve

import "github.com/skipsim/skip/internal/sim"

// stateSeries buffers a continuous instance's state samples: one
// (time, queue depth, KV fraction) triple per point. Points go into
// chunks that start small and double up to seriesMaxChunk, so a short
// run or a sweep point pays for a few dozen points, and a long run
// never copies a stored point until split copies the buffer once into
// the two exact-length report series.
type stateSeries struct {
	chunks [][]statePoint
	n      int
}

type statePoint struct {
	t     sim.Time
	queue float64
	kv    float64
}

const (
	seriesFirstChunk = 32
	seriesMaxChunk   = 4096
)

func (ss *stateSeries) add(t sim.Time, queue, kv float64) {
	last := len(ss.chunks) - 1
	if last < 0 || len(ss.chunks[last]) == cap(ss.chunks[last]) {
		size := seriesFirstChunk
		if last >= 0 {
			size = min(2*cap(ss.chunks[last]), seriesMaxChunk)
		}
		ss.chunks = append(ss.chunks, make([]statePoint, 0, size))
		last++
	}
	ss.chunks[last] = append(ss.chunks[last], statePoint{t, queue, kv})
	ss.n++
}

// split returns the buffered points as the QueueDepth and KVOccupancy
// series, in insertion order; both are nil when the buffer is empty.
func (ss *stateSeries) split() (queue, kv []SamplePoint) {
	if ss.n == 0 {
		return nil, nil
	}
	queue = make([]SamplePoint, 0, ss.n)
	kv = make([]SamplePoint, 0, ss.n)
	for _, c := range ss.chunks {
		for _, p := range c {
			queue = append(queue, SamplePoint{T: p.t, V: p.queue})
			kv = append(kv, SamplePoint{T: p.t, V: p.kv})
		}
	}
	return queue, kv
}
