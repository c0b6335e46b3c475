package serve

import (
	"fmt"

	"github.com/skipsim/skip/internal/sim"
)

// Dynamic instance lifecycle: an Instance on a shared calendar can now
// leave a *running* simulation (drain or kill) and new instances can
// join one (NewInstance is callable from inside a calendar event), so a
// fleet's membership is no longer frozen at construction. The fleet
// layer (internal/cluster) builds autoscaling and failure injection on
// these primitives; the serving layer itself only defines the states
// and the exact accounting that keeps the request ledger reconcilable
// under churn.
//
// State machine:
//
//	Active ──Drain──▶ Draining ──(queue+batch run dry)──▶ Stopped
//	   │                  │
//	   └──────Kill────────┴──────────────────────────────▶ Stopped
//
// Active instances accept new work. Draining instances refuse fresh
// placements but finish everything already theirs (committed KV
// handoffs may still Resume on them — a drain must not strand a cache
// already in flight). Stopped instances refuse everything; a kill
// evicts all in-flight work as Handoff records for the fleet layer to
// requeue (AcceptRequeued), so no request is silently lost.

// InstanceState is the lifecycle state of a serving instance.
type InstanceState int

const (
	// StateActive accepts new work (every instance starts here).
	StateActive InstanceState = iota
	// StateDraining refuses fresh placements and leaves once its
	// in-flight work settles.
	StateDraining
	// StateStopped is out of the fleet: drained dry or killed.
	StateStopped
)

func (s InstanceState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// State reports the instance's lifecycle state.
func (in *Instance) State() InstanceState { return in.s.state }

// Accepting reports whether the router may place fresh work here.
func (in *Instance) Accepting() bool { return in.s.state == StateActive }

// Drain stops fresh placements; in-flight work (wait queue and running
// batch, plus any KV handoff already committed to this instance)
// finishes normally, after which the instance stops. Emits
// EventDrainStart now and EventInstanceGone when the instance runs dry.
// Draining an already draining or stopped instance is a no-op.
func (in *Instance) Drain(now sim.Time) {
	s := in.s
	if s.state != StateActive {
		return
	}
	s.state = StateDraining
	s.emitLifecycle(now, EventDrainStart, "")
	s.maybeFinishDrain(now)
}

// Kill stops the instance immediately: every waiting and running
// request is evicted (KV released, abandonment timers cancelled) and
// returned for the fleet layer to requeue, in wait-queue order then
// admission order — a deterministic sequence. Like a preemption, an
// evicted request loses its KV cache and compute progress and
// recomputes from scratch wherever it lands; its Handoff keeps the
// delivered-token high-water and the TTFT anchor. An iteration in
// flight at kill time is discarded; its batch members are evicted like
// the rest. Emits EventInstanceGone. Killing an already stopped
// instance returns nil.
func (in *Instance) Kill(now sim.Time) []Handoff {
	s := in.s
	if s.state == StateStopped {
		return nil
	}
	s.state = StateStopped
	var out []Handoff
	evict := func(cr *contRequest) {
		s.cal.Cancel(cr.abandonEv)
		cr.abandonEv = sim.Handle{}
		// Unpin any prefix-cache blocks the request held: a kill must
		// leave the cache ledger balanced even though the instance's
		// cache dies with it.
		s.releaseBlocks(cr)
		cr.running = false
		s.killed++
		out = append(out, cr.handoffRecord())
	}
	for _, w := range s.waiting.items() {
		evict(w)
	}
	for _, r := range s.running {
		evict(r)
	}
	s.waiting, s.running = waitQueue{}, nil
	s.kvUsed = 0
	s.busy = false
	s.emitLifecycle(now, EventInstanceGone, "killed")
	return out
}

// AcceptRequeued places an evicted request on this instance: it joins
// the wait queue like a fresh arrival but keeps its original arrival
// instant, its TTFT anchor, and its delivered-token high-water, so
// latency samples and token throughput count exactly once across the
// requeue. The request recomputes from scratch (prompt included), and
// on a prefill-only instance hands off again when its prefill
// completes. Requests whose first token was already streamed never
// abandon — their user is mid-stream, exactly like a disaggregated
// resume.
func (in *Instance) AcceptRequeued(now sim.Time, h Handoff) error {
	if !in.Accepting() {
		return fmt.Errorf("serve: instance %s is %s and accepts no requeued work", in.name, in.s.state)
	}
	if !in.Fits(h.Req) {
		return fmt.Errorf("serve: instance %s cannot ever fit requeued request %d (prompt %d + output %d tokens)",
			in.name, h.Req.ID, h.Req.PromptLen, h.Req.OutputLen)
	}
	in.routed++
	in.s.arrive(now, in.s.newSlot(contRequest{
		req:       h.Req,
		delivered: h.Delivered,
		firstTok:  h.FirstToken,
		hasFirst:  h.HasFirst,
		resumed:   h.HasFirst, // mid-stream requests never abandon
	}))
	return nil
}

// SetSlowFactor scales every subsequent iteration's duration by factor
// (a slow-node fault: a degraded host, a throttled GPU). Factor 1
// restores full speed; factors below 1 are rejected as nonsensical
// speed-ups. The iteration in flight when the factor changes keeps its
// already-scheduled duration.
func (in *Instance) SetSlowFactor(factor float64) error {
	if factor < 1 {
		return fmt.Errorf("serve: instance %s: slow factor must be ≥ 1, got %g", in.name, factor)
	}
	in.s.slowFactor = factor
	return nil
}

// SLOWindow reports how many of the instance's most recent w first
// tokens met the TTFT SLO, and how many samples that window actually
// holds — the rolling-attainment signal an autoscale controller
// evaluates mid-run. With no SLO configured every sample counts as met.
func (in *Instance) SLOWindow(w int) (met, total int) {
	s := in.s
	n := len(s.ttfts)
	if w <= 0 || w > n {
		w = n
	}
	for _, t := range s.ttfts[n-w:] {
		if s.cfg.TTFTSLO <= 0 || t <= s.cfg.TTFTSLO {
			met++
		}
	}
	return met, w
}

// emitLifecycle reports an instance-scoped event (no request attached).
func (s *contSim) emitLifecycle(now sim.Time, t EventType, detail string) {
	if s.cfg.Observer == nil {
		return
	}
	s.cfg.Observer(Event{Time: now, Type: t, Detail: detail})
}

// maybeFinishDrain completes a drain whose work has run dry.
func (s *contSim) maybeFinishDrain(now sim.Time) {
	if s.state != StateDraining || s.busy || s.waiting.len() > 0 || len(s.running) > 0 {
		return
	}
	s.state = StateStopped
	s.emitLifecycle(now, EventInstanceGone, "drained")
}
