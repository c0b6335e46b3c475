package serve

import (
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

// TestDrainFinishesInFlightWork: a draining instance refuses fresh
// placements but completes everything already placed, then stops —
// emitting drain-start and instance-gone in order.
func TestDrainFinishesInFlightWork(t *testing.T) {
	var events []Event
	cfg := contConfig()
	cfg.Observer = func(e Event) { events = append(events, e) }
	cal := sim.NewCalendar()
	in, err := NewInstance("d", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	reqs := mustUniform(t, 6, 2*sim.Millisecond)
	for i := range reqs {
		req := reqs[i]
		cal.Schedule(req.Arrival, func(now sim.Time) {
			if err := in.Accept(now, req); err != nil {
				t.Errorf("accept %d: %v", req.ID, err)
			}
		})
	}
	drainAt := reqs[len(reqs)-1].Arrival + sim.Microsecond
	cal.Schedule(drainAt, func(now sim.Time) {
		in.Drain(now)
		if in.State() != StateDraining {
			t.Errorf("state after Drain = %v, want draining", in.State())
		}
		if in.Accepting() {
			t.Error("draining instance still reports Accepting")
		}
		if err := in.Accept(now, Request{ID: 999}); err == nil {
			t.Error("draining instance accepted fresh work")
		}
	})
	cal.Run()
	if err := in.Err(); err != nil {
		t.Fatal(err)
	}
	if in.State() != StateStopped {
		t.Errorf("state after running dry = %v, want stopped", in.State())
	}
	st := in.Stats()
	if st.Completed != 6 {
		t.Errorf("completed %d of 6 in-flight requests across the drain", st.Completed)
	}
	var sawDrain, sawGone bool
	for _, e := range events {
		switch e.Type {
		case EventDrainStart:
			sawDrain = true
			if sawGone {
				t.Error("instance-gone before drain-start")
			}
		case EventInstanceGone:
			sawGone = true
			if !sawDrain {
				t.Error("instance-gone without a preceding drain-start")
			}
			if e.Detail != "drained" {
				t.Errorf("instance-gone detail %q, want \"drained\"", e.Detail)
			}
		}
	}
	if !sawDrain || !sawGone {
		t.Errorf("lifecycle events missing: drain-start %v instance-gone %v", sawDrain, sawGone)
	}
}

// TestKillEvictsEverything: a kill stops the instance immediately,
// returning every waiting and running request as a Handoff record with
// resolved lengths, and the instance's ledger counts them as killed.
func TestKillEvictsEverything(t *testing.T) {
	cfg := contConfig()
	cal := sim.NewCalendar()
	in, err := NewInstance("k", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	reqs := mustUniform(t, 8, sim.Millisecond)
	for i := range reqs {
		req := reqs[i]
		cal.Schedule(req.Arrival, func(now sim.Time) {
			if err := in.Accept(now, req); err != nil {
				t.Errorf("accept %d: %v", req.ID, err)
			}
		})
	}
	killAt := reqs[len(reqs)-1].Arrival + sim.Microsecond
	var evs []Handoff
	cal.Schedule(killAt, func(now sim.Time) {
		outstanding := in.Outstanding()
		evs = in.Kill(now)
		if len(evs) != outstanding {
			t.Errorf("kill evicted %d, want the %d outstanding", len(evs), outstanding)
		}
		if in.State() != StateStopped {
			t.Errorf("state after Kill = %v, want stopped", in.State())
		}
		if in.Outstanding() != 0 {
			t.Errorf("%d requests still outstanding after Kill", in.Outstanding())
		}
		if again := in.Kill(now); again != nil {
			t.Errorf("second Kill returned %d evictions, want nil", len(again))
		}
	})
	cal.Run()
	if err := in.Err(); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.Killed != len(evs) {
		t.Errorf("stats killed %d, want %d", st.Killed, len(evs))
	}
	if st.Completed+st.Killed != len(reqs) {
		t.Errorf("completed %d + killed %d != %d accepted", st.Completed, st.Killed, len(reqs))
	}
	for _, ev := range evs {
		if ev.Req.PromptLen <= 0 || ev.Req.OutputLen <= 0 {
			t.Errorf("eviction %d carries unresolved lengths %d/%d", ev.Req.ID, ev.Req.PromptLen, ev.Req.OutputLen)
		}
	}
}

// TestAcceptRequeuedSettlesExactlyOnce: a request killed on one
// instance and requeued on another completes exactly once, recomputing
// from scratch; a mid-stream victim contributes no second TTFT sample
// on its new host.
func TestAcceptRequeuedSettlesExactlyOnce(t *testing.T) {
	cfg := contConfig()
	cal := sim.NewCalendar()
	a, err := NewInstance("a", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInstance("b", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	reqs := mustUniform(t, 4, sim.Millisecond)
	for i := range reqs {
		req := reqs[i]
		cal.Schedule(req.Arrival, func(now sim.Time) {
			if err := a.Accept(now, req); err != nil {
				t.Errorf("accept %d: %v", req.ID, err)
			}
		})
	}
	// Kill late enough that some victims are mid-stream (first token
	// served), then requeue everything on b.
	cal.Schedule(reqs[len(reqs)-1].Arrival+20*sim.Millisecond, func(now sim.Time) {
		evs := a.Kill(now)
		for _, ev := range evs {
			if err := b.AcceptRequeued(now, ev); err != nil {
				t.Errorf("requeue %d: %v", ev.Req.ID, err)
			}
		}
	})
	cal.Run()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Completed+sa.Killed != len(reqs) {
		t.Errorf("a: completed %d + killed %d != %d", sa.Completed, sa.Killed, len(reqs))
	}
	if sb.Completed != sa.Killed {
		t.Errorf("b completed %d, want the %d requeued", sb.Completed, sa.Killed)
	}
	// TTFT samples across both hosts must total one per request: a
	// victim whose first token was served on a keeps that sample; one
	// still waiting samples on b instead.
	ta, _, _ := a.Latencies()
	tb, _, _ := b.Latencies()
	if len(ta)+len(tb) != len(reqs) {
		t.Errorf("TTFT samples %d + %d across hosts, want exactly %d", len(ta), len(tb), len(reqs))
	}
}

// TestSlowFactorStretchesIterations: a slow-node multiplier must
// lengthen the horizon of an identical workload.
func TestSlowFactorStretchesIterations(t *testing.T) {
	run := func(factor float64) sim.Time {
		cfg := contConfig()
		cal := sim.NewCalendar()
		in, err := NewInstance("s", cfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		if factor > 1 {
			if err := in.SetSlowFactor(factor); err != nil {
				t.Fatal(err)
			}
		}
		reqs := mustUniform(t, 10, sim.Millisecond)
		for i := range reqs {
			req := reqs[i]
			cal.Schedule(req.Arrival, func(now sim.Time) {
				if err := in.Accept(now, req); err != nil {
					t.Errorf("accept %d: %v", req.ID, err)
				}
			})
		}
		cal.Run()
		if err := in.Err(); err != nil {
			t.Fatal(err)
		}
		return in.Stats().Horizon
	}
	base, slowed := run(1), run(4)
	if slowed <= base {
		t.Errorf("4× slow node finished in %v, not slower than the %v baseline", slowed, base)
	}
	cal := sim.NewCalendar()
	in, err := NewInstance("s", contConfig(), cal)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.SetSlowFactor(0.5); err == nil {
		t.Error("SetSlowFactor accepted a speed-up factor below 1")
	}
}
