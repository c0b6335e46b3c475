package serve

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/sim"
)

// Instance is one continuous-batching server stepped by an external
// shared calendar, the building block for multi-instance cluster
// simulations: a front-end router owns the sim.Calendar, constructs N
// instances on it, and hands each arriving request to one of them with
// Accept. All instances' events interleave in global timestamp order on
// the one calendar, so a fleet simulates under a single shared clock.
//
// The load accessors (QueueDepth, Running, KVFrac, KVPressure) expose
// the scheduler state a router inspects at decision time; they are only
// meaningful while the calendar is between events, which is exactly
// when routing callbacks run.
type Instance struct {
	name   string
	s      *contSim
	routed int
}

// NewInstance builds an instance of the given continuous policy on the
// shared calendar. The legacy run-to-completion policies (StaticBatch,
// GreedyBatch) batch at dispatch time and cannot be externally stepped.
func NewInstance(name string, cfg Config, cal *sim.Calendar) (*Instance, error) {
	if cal == nil {
		return nil, fmt.Errorf("serve: instance %q needs a calendar", name)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Policy != ContinuousBatch && cfg.Policy != ChunkedPrefill {
		return nil, fmt.Errorf("serve: instance %q needs a continuous policy, got %s", name, cfg.Policy)
	}
	s, err := newContSim(cfg, cal)
	if err != nil {
		return nil, err
	}
	return &Instance{name: name, s: s}, nil
}

// Name returns the instance's display name.
func (in *Instance) Name() string { return in.name }

// Platform returns the hardware platform the instance models.
func (in *Instance) Platform() *hw.Platform { return in.s.cfg.Platform }

// Fits reports whether the request's lifetime KV footprint (prompt +
// generation, after the config's length fallbacks) fits the instance's
// KV budget at all. A request that doesn't fit would preempt-livelock
// and must be routed elsewhere or rejected.
func (in *Instance) Fits(req Request) bool {
	return in.s.lifetimeKV(req) <= in.s.capacity
}

// Accept hands the request to the instance at the current calendar
// time: it joins the wait queue (arming its abandonment timer if
// configured) and the scheduler is poked. Accept must be called from
// inside a calendar event at the request's arrival instant — the
// cluster front-end's routing callback. It fails if the request can
// never fit (see Fits).
func (in *Instance) Accept(now sim.Time, req Request) error {
	if !in.Accepting() {
		return fmt.Errorf("serve: instance %s is %s and accepts no new work", in.name, in.s.state)
	}
	cr, err := in.s.newRequest(req)
	if err != nil {
		return err
	}
	in.routed++
	in.s.arrive(now, cr)
	return nil
}

// Routed counts requests accepted so far: fresh arrivals (Accept) and
// crash-evicted requests requeued here (AcceptRequeued). Resumed
// handoffs are not counted.
func (in *Instance) Routed() int { return in.routed }

// QueueDepth reports the current wait-queue length.
func (in *Instance) QueueDepth() int { return in.s.waiting.len() }

// Running reports the current running-batch size.
func (in *Instance) Running() int { return len(in.s.running) }

// Outstanding reports queued plus running requests — the in-flight load
// a least-loaded router balances on.
func (in *Instance) Outstanding() int { return in.s.waiting.len() + len(in.s.running) }

// KVFrac reports the admitted KV-cache occupancy as a fraction of the
// budget.
func (in *Instance) KVFrac() float64 { return in.s.kvUsed / in.s.capacity }

// KVPressure adds the wait queue's unreserved prompt footprints to the
// admitted occupancy: the KV demand already committed to this instance,
// as a fraction of its budget. A KV-aware router minimizes this rather
// than KVFrac so queued-but-unadmitted work still repels new requests.
// The queue keeps its prompt tokens summed, so a call costs O(1). The
// occupancy, the bytes per token and every prompt footprint are
// integers below 2^53, so the sum is exact in any order.
func (in *Instance) KVPressure() float64 {
	return (in.s.kvUsed + float64(float64(in.s.waiting.tokens)*in.s.bytesPerTok)) / in.s.capacity
}

// CachedPrefixTokens reports how many of the request's leading prompt
// tokens are device-resident in this instance's prefix cache — the
// overlap a prefix-affinity router maximizes at pick time, and the
// tokens a disaggregated handoff to this instance need not ship. It is
// strictly read-only (no refcounts, no LRU order, no ledger), so
// routers and counterfactual scorers may call it freely; 0 when the
// instance has no cache or the request no session.
func (in *Instance) CachedPrefixTokens(req Request) int64 {
	if in.s.cache == nil || req.SessionID == 0 {
		return 0
	}
	return in.s.cache.Peek(req.SessionID, in.s.resolve(req).PromptLen)
}

// Err reports a latency-model failure inside the event loop, after
// which the instance's state is frozen and its stats are meaningless.
func (in *Instance) Err() error { return in.s.err }

// Stats assembles the instance's serving statistics. Call it after the
// shared calendar has drained.
func (in *Instance) Stats() *Stats { return in.s.stats() }

// Latencies returns the raw per-request samples (TTFT, TPOT, E2E) so a
// cluster can compute exact fleet-level percentiles instead of
// averaging per-instance ones. The slices are the instance's own:
// callers copy before they modify. Stats sorts them in place, so after
// a Stats call each is ascending.
func (in *Instance) Latencies() (ttfts, tpots, e2es []sim.Time) {
	return in.s.ttfts, in.s.tpots, in.s.e2es
}
