package serve

import (
	"sync/atomic"

	"github.com/skipsim/skip/internal/sim"
)

// Leaping over pure-decode iterations. While every running request
// decodes and the wait queue is empty, an iteration's boundary changes
// nothing but counters: each request gains a token and its KV grows by
// one position, and the next iteration repeats the same decode step
// one KV position longer. The step oracle prices that step per
// LatencyBucket of KV length, so a run of such iterations inside one
// bucket has one duration, and boundary i of the run ends at
// base + i·step in exact integer nanoseconds. kick then schedules one
// calendar event at the run's last boundary instead of one
// finishIteration per iteration.
//
// The run ends before the first boundary that could be anything else:
// one that completes a request, one whose kick would preempt for KV
// growth, or one whose next iteration crosses into another latency
// bucket. Its last boundary runs the ordinary finishIteration, so
// whatever that boundary does, it does on the step path.
//
// Nothing but a contact can change the run between its boundaries.
// Every contact first applies the boundaries strictly before now
// (catchUp): arrivals, kills, slow-node faults, KV reads and Stats. A
// contact that changes the batch, its speed or its queue also cuts the
// leap (cutLeap): the in-flight iteration goes back to an ordinary
// finish at its own end. The bulk apply has exactly the step path's
// effects. KV bytes are integer-valued below 2^53, so one addition of
// k·bytesPerTok equals k additions of bytesPerTok, and both state
// samples of every boundary are taken in order, so the KV integral,
// the series, the peaks and the windowed means accumulate bit for bit.
//
// Ties. A contact at exactly a boundary instant sees the boundaries
// strictly before it. That is the step path's order for the contacts
// a leaping instance can receive: stream arrivals and the faults
// scheduled before the run take smaller calendar sequence numbers than
// any finish the step path schedules during the run. Run-time events
// can contact an instance too. A KV transfer landing resumes a request
// on a disaggregated decode member, and a decode pick reads the
// members' KV pressure, at instants the step path may order either
// way. So an instance stops leaping once it resumes a handoff, and a
// prefill-only instance never leaps. The autoscale controller's ticks
// are run-time events too, but they read and change only what a leap
// leaves alone: the SLO window, the outstanding count and the drain
// state.

// leapOn is the switch newContSim copies into each simulator. Tests
// turn it off to run the step path for comparison.
var leapOn = true

// leaptBoundaries counts, process-wide, the iteration boundaries leaps
// applied in bulk. Tests read it to check that a run really leapt.
var leaptBoundaries atomic.Int64

// leap is a run of decode iterations in flight as one calendar event,
// an ordinary finish at the run's last boundary. Boundary i (from 1)
// ends at base + i·step; boundaries 1..last−1 are applied in bulk, and
// the finish applies them before it finishes boundary last. The zero
// leap has no event and means none is in flight.
type leap struct {
	ev         sim.Handle
	base, step sim.Time
	last, done int // done: boundaries applied so far
}

// planLeap makes the iteration kick just planned, in which every
// running request decodes, the first of a leap when one can start: it
// schedules the leap's event and reports true, or leaves the
// iteration to the caller. The iteration ends at base + step, where
// step is the decode step's duration.
func (s *contSim) planLeap(base, step sim.Time, maxKV int64) bool {
	if !s.leapOn || step <= 0 || s.waiting.len() > 0 || s.handoff != nil || s.resumed > 0 ||
		(s.cfg.StateWindow > 0 && s.cfg.Observer != nil) {
		return false
	}
	// Iterations 1..last keep the first one's latency bucket, and
	// boundaries 1..last−1 complete nobody. They emit no first token
	// either: a decoding request has one, because prefix-cache credit
	// always leaves a prompt token to prefill.
	b := s.sm.Bucket
	last := b - (maxKV-1)%b
	for _, r := range s.running {
		last = min(last, r.req.OutputLen-r.generated)
	}
	// The kick at boundary i < last preempts nobody: it needs
	// kvUsed + (i+1)·growth within the budget. A lone request is never
	// preempted.
	if n := len(s.running); n > 1 {
		growth := float64(float64(n) * s.bytesPerTok)
		if s.kvUsed+float64(float64(last)*growth) > s.capacity {
			last = int64((s.capacity - s.kvUsed) / growth)
			for last > 0 && s.kvUsed+float64(float64(last)*growth) > s.capacity {
				last--
			}
		}
	}
	if last < 2 {
		return false
	}
	s.lp = leap{base: base, step: step, last: int(last)}
	s.lp.ev = s.cal.Schedule(base+sim.Time(last)*step, s.finish)
	return true
}

// catchUp applies the in-flight leap's boundaries that end strictly
// before now, each with its finish and its kick: every request gains a
// token, the KV grows, the state is sampled twice, and the next
// iteration is counted.
func (s *contSim) catchUp(now sim.Time) {
	lp := &s.lp
	if lp.ev == (sim.Handle{}) || now <= lp.base {
		return
	}
	upto := min(int((now-lp.base-1)/lp.step), lp.last-1)
	if upto <= lp.done {
		return
	}
	n := len(s.running)
	growth := float64(float64(n) * s.bytesPerTok)
	for i := lp.done + 1; i <= upto; i++ {
		t := lp.base + sim.Time(i)*lp.step
		s.kvUsed += growth
		s.sample(t) // the finish's sample
		s.sample(t) // the kick's
	}
	k := upto - lp.done
	lp.done = upto
	kv := float64(float64(k) * s.bytesPerTok)
	for _, r := range s.running {
		r.generated += int64(k)
		r.kvBytes += kv
		if r.generated > r.delivered { // recomputed tokens count once
			s.tokensOut += r.generated - r.delivered
			r.delivered = r.generated
		}
	}
	s.iterations += k
	s.totalBatch += k * n
	leaptBoundaries.Add(int64(k))
}

// cutLeap ends the in-flight leap at now: the boundaries before now
// are applied and the iteration in flight finishes on its own at its
// end.
func (s *contSim) cutLeap(now sim.Time) {
	if s.lp.ev == (sim.Handle{}) {
		return
	}
	s.catchUp(now)
	s.cal.Cancel(s.lp.ev)
	end := s.lp.base + sim.Time(s.lp.done+1)*s.lp.step
	s.lp = leap{}
	s.cal.Schedule(end, s.finish)
}
