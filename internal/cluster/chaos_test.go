package cluster

import (
	"reflect"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// TestStaticFleetHasNilChaos: without an autoscale or faults section the
// churn ledger must never allocate — nil means a static fleet, and the
// report omits the section.
func TestStaticFleetHasNilChaos(t *testing.T) {
	st, _, err := Simulate(Config{Instances: mixedFleet(), Policy: RoundRobin}, testLoad(t, 20, 200, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st.Chaos != nil {
		t.Errorf("static fleet grew a chaos ledger: %+v", st.Chaos)
	}
}

// testAutoscale is a fast controller for tests: short period, short
// spin-up, so growth happens inside a sub-second workload.
func testAutoscale(target float64, max int) *AutoscaleConfig {
	return &AutoscaleConfig{
		Template: testServeConfig(hw.GH200()), Signal: SignalQueueDepth,
		Target: target, Max: max,
		Interval: 10 * sim.Millisecond, Cooldown: 10 * sim.Millisecond,
		SpinUpDelay: 20 * sim.Millisecond,
	}
}

// TestAutoscaleGrowsAndDrains: a burst deep enough to swamp one
// instance must trigger joins; once the burst drains and the queue runs
// cold before a late straggler, the controller must drain its own
// spin-ups back out. The base instance is never drained.
func TestAutoscaleGrowsAndDrains(t *testing.T) {
	reqs := testLoad(t, 50, 1000, 3)
	// A straggler long after the burst keeps the controller ticking
	// through the cold period so shrinks actually fire.
	reqs = append(reqs, serve.Request{ID: 1000, Arrival: 2 * sim.Second, PromptLen: 48, OutputLen: 4})
	st, _, err := Simulate(Config{
		Instances: []Member{{Serve: testServeConfig(hw.GH200())}},
		Policy:    LeastQueue,
		Autoscale: testAutoscale(2, 3),
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil {
		t.Fatal("autoscaled fleet has no chaos ledger")
	}
	if c.Joins < 1 {
		t.Errorf("burst of 50 over one instance triggered %d joins, want ≥ 1", c.Joins)
	}
	if c.PeakActive < 2 {
		t.Errorf("peak active %d, want ≥ 2 after a join", c.PeakActive)
	}
	if c.PeakActive > 3 {
		t.Errorf("peak active %d exceeds the configured max 3", c.PeakActive)
	}
	if c.Drains < 1 {
		t.Errorf("cold period before the straggler triggered %d drains, want ≥ 1", c.Drains)
	}
	if c.FinalActive < 1 {
		t.Error("the base instance must never be drained away")
	}
	if len(c.FleetSize) < 1+c.Joins+c.Drains {
		t.Errorf("fleet-size series has %d samples, want ≥ %d (start + every transition)",
			len(c.FleetSize), 1+c.Joins+c.Drains)
	}
	if st.Completed != len(reqs) {
		t.Errorf("completed %d of %d across the scale actions", st.Completed, len(reqs))
	}
	if len(st.Instances) != 1+c.Joins {
		t.Errorf("report shows %d instances, want base + %d joins", len(st.Instances), c.Joins)
	}
}

// TestScheduledCrashRequeuesInOrder: a crash mid-burst must evict the
// victim's in-flight work and re-place it through the router, emitting
// fault-injected → instance-gone → requeued in that exact order; the
// event stream itself must be deterministic across reruns.
func TestScheduledCrashRequeuesInOrder(t *testing.T) {
	run := func() (*Stats, []serve.Event) {
		var events []serve.Event
		st, _, err := Simulate(Config{
			Instances: mixedFleet(), Policy: RoundRobin,
			Observer: func(e serve.Event) { events = append(events, e) },
			Faults: &FaultsConfig{Faults: []Fault{
				{At: 10 * sim.Millisecond, Kind: FaultCrash, Target: 0},
			}},
		}, testLoad(t, 40, 2000, 11))
		if err != nil {
			t.Fatal(err)
		}
		return st, events
	}
	st, events := run()
	c := st.Chaos
	if c == nil {
		t.Fatal("faulted fleet has no chaos ledger")
	}
	if c.Crashes != 1 {
		t.Fatalf("crashes %d, want exactly 1", c.Crashes)
	}
	if c.Killed < 1 {
		t.Fatal("crash at 10ms into a 2000/s burst evicted nothing")
	}
	if c.Killed != c.Requeued+c.Dropped {
		t.Errorf("killed %d != requeued %d + dropped %d", c.Killed, c.Requeued, c.Dropped)
	}
	if c.FinalActive != 1 {
		t.Errorf("final active %d, want 1 after the crash", c.FinalActive)
	}
	if st.Completed+st.Abandoned+c.Dropped != st.Routed {
		t.Errorf("ledger: completed %d + abandoned %d + dropped %d != routed %d",
			st.Completed, st.Abandoned, c.Dropped, st.Routed)
	}

	victim := st.Instances[0].Name
	fault, gone, requeues := -1, -1, 0
	for i, e := range events {
		switch {
		case e.Type == serve.EventFaultInjected && e.Instance == victim:
			fault = i
		case e.Type == serve.EventInstanceGone && e.Instance == victim:
			gone = i
			if e.Detail != "killed" {
				t.Errorf("instance-gone detail %q, want \"killed\"", e.Detail)
			}
		case e.Type == serve.EventRequeued:
			requeues++
			if gone < 0 {
				t.Error("requeued event before the victim was gone")
			}
		}
	}
	if fault < 0 || gone < 0 || fault > gone {
		t.Errorf("event order broken: fault-injected at %d, instance-gone at %d", fault, gone)
	}
	if requeues != c.Requeued {
		t.Errorf("observer saw %d requeued events, ledger says %d", requeues, c.Requeued)
	}

	st2, events2 := run()
	if !reflect.DeepEqual(st, st2) {
		t.Error("rerun produced different stats under an identical fault plan")
	}
	if !reflect.DeepEqual(events, events2) {
		t.Errorf("event streams diverged across reruns: %d vs %d events", len(events), len(events2))
	}
}

// TestSlowNodeFaultStretchesTheRun: a slow-node multiplier on the only
// instance must push the horizon out versus an identical fault-free run.
func TestSlowNodeFaultStretchesTheRun(t *testing.T) {
	reqs := testLoad(t, 20, 400, 5)
	base, _, err := Simulate(Config{
		Instances: []Member{{Serve: testServeConfig(hw.GH200())}}, Policy: RoundRobin,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	slowed, _, err := Simulate(Config{
		Instances: []Member{{Serve: testServeConfig(hw.GH200())}}, Policy: RoundRobin,
		Faults: &FaultsConfig{Faults: []Fault{
			{At: 0, Kind: FaultSlowNode, Target: 0, Factor: 8},
		}},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if slowed.Chaos == nil || slowed.Chaos.SlowNodes != 1 {
		t.Fatalf("slow-node ledger: %+v", slowed.Chaos)
	}
	if slowed.Horizon <= base.Horizon {
		t.Errorf("8× slow node finished at %v, not later than the fault-free %v", slowed.Horizon, base.Horizon)
	}
	if slowed.Completed != base.Completed {
		t.Errorf("slow node completed %d vs %d — slowness must not lose work", slowed.Completed, base.Completed)
	}
}

// TestSeededChaosDeterministic: autoscaling plus seeded-random crashes
// must reproduce identical statistics — FleetSize series, churn
// counters, and every nested per-instance ledger included — run to run.
// CI runs this under -race as well.
func TestSeededChaosDeterministic(t *testing.T) {
	cfg := Config{
		Instances: mixedFleet(), Policy: LeastQueue,
		TTFTSLO:   200 * sim.Millisecond,
		Autoscale: testAutoscale(2, 4),
		Faults:    &FaultsConfig{CrashRatePerSec: 10, Seed: 42},
	}
	a, _, err := Simulate(cfg, testLoad(t, 60, 300, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Simulate(cfg, testLoad(t, 60, 300, 9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Chaos == nil {
		t.Fatal("chaos run has no chaos ledger")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeded chaos must be deterministic:\n a: %+v\n b: %+v", a.Chaos, b.Chaos)
	}
}

// TestSessionAffinityRepinsAfterCrash: crashing the instance a session
// is pinned to must move the pin (recorded in the churn ledger), not
// strand the session's later turns.
func TestSessionAffinityRepinsAfterCrash(t *testing.T) {
	var reqs []serve.Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, serve.Request{
			ID: i, Arrival: sim.Time(i) * 5 * sim.Millisecond,
			PromptLen: 48, OutputLen: 4, SessionID: 7,
		})
	}
	// Session 7's first turn pins to index 0 (least-outstanding tie
	// breaks low); the crash lands mid-session.
	st, _, err := Simulate(Config{
		Instances: mixedFleet(), Policy: SessionAffinity,
		Faults: &FaultsConfig{Faults: []Fault{
			{At: 12 * sim.Millisecond, Kind: FaultCrash, Target: 0},
		}},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil || c.Crashes != 1 {
		t.Fatalf("chaos ledger: %+v", c)
	}
	if c.Repins < 1 {
		t.Errorf("session pinned to the crashed instance recorded %d repins, want ≥ 1", c.Repins)
	}
	if st.Completed+c.Dropped != st.Routed {
		t.Errorf("ledger: completed %d + dropped %d != routed %d", st.Completed, c.Dropped, st.Routed)
	}
	if got := st.Instances[1].Routed; got < 1 {
		t.Error("no post-crash turn landed on the surviving instance")
	}
}

// TestFaultTargetNoOps: faults aimed at members that do not exist, or
// fired twice at the same victim, must be deterministic no-ops — not
// errors, not double counts.
func TestFaultTargetNoOps(t *testing.T) {
	st, _, err := Simulate(Config{
		Instances: mixedFleet(), Policy: RoundRobin,
		Faults: &FaultsConfig{Faults: []Fault{
			{At: 5 * sim.Millisecond, Kind: FaultCrash, Target: 99},
			{At: 10 * sim.Millisecond, Kind: FaultCrash, Target: 0},
			{At: 15 * sim.Millisecond, Kind: FaultCrash, Target: 0},
		}},
	}, testLoad(t, 30, 1000, 13))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil {
		t.Fatal("faulted fleet has no chaos ledger")
	}
	if c.Crashes != 1 {
		t.Errorf("crashes %d, want 1 (out-of-range and already-dead targets are no-ops)", c.Crashes)
	}
	if st.Completed+st.Abandoned+c.Dropped != st.Routed {
		t.Errorf("ledger: completed %d + abandoned %d + dropped %d != routed %d",
			st.Completed, st.Abandoned, c.Dropped, st.Routed)
	}
}

// survivalFleet builds an idle fleet with a churn ledger, one member
// per role, without scheduling any arrivals. Any role other than
// RoleBoth makes it a disaggregated fleet with its own decode pool.
func survivalFleet(t *testing.T, roles ...Role) *fleetSim {
	t.Helper()
	cfg := Config{Policy: LeastQueue}
	for _, r := range roles {
		cfg.Instances = append(cfg.Instances, Member{Serve: testServeConfig(hw.GH200()), Role: r})
		if r != RoleBoth {
			cfg.Disagg = &Disaggregation{DecodePolicy: LeastQueue}
		}
	}
	f, err := newFleet(cfg, []serve.Request{{ID: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cfg.Instances {
		if _, err := f.addInstance(m.Serve, m.Role, false); err != nil {
			t.Fatal(err)
		}
	}
	f.chaos = &ChaosStats{}
	return f
}

// TestRandomCrashSurvivability pins the random-crash rule: a crash
// fires only when every pool keeps an accepting member other than the
// victim. A draining victim beside one accepting survivor crashes; a
// lone accepting victim is skipped; and in a disaggregated fleet a
// crash that would empty the decode pool is skipped even though the
// prefill pool could spare the instance count.
func TestRandomCrashSurvivability(t *testing.T) {
	drainBusy := func(t *testing.T, f *fleetSim, idx int) {
		t.Helper()
		in := f.members[idx].in
		if err := in.Accept(0, serve.Request{ID: 1, PromptLen: 32, OutputLen: 4}); err != nil {
			t.Fatal(err)
		}
		in.Drain(0)
		if in.State() != serve.StateDraining {
			t.Fatalf("member %d is %v, want draining", idx, in.State())
		}
	}

	f := survivalFleet(t, RoleBoth, RoleBoth)
	drainBusy(t, f, 0)
	f.randomCrash(0, 0) // victim: the draining member 0
	if f.chaos.Crashes != 1 || f.chaos.Killed != 1 || f.chaos.Requeued != 1 {
		t.Errorf("draining victim beside one accepting survivor: %+v, want 1 crash, 1 killed, 1 requeued", f.chaos)
	}

	f = survivalFleet(t, RoleBoth, RoleBoth)
	drainBusy(t, f, 0)
	f.randomCrash(0, 1) // victim: member 1, the only accepting one
	if f.chaos.Crashes != 0 {
		t.Errorf("lone accepting victim crashed: %+v", f.chaos)
	}

	f = survivalFleet(t, RolePrefill, RolePrefill, RoleDecode)
	f.randomCrash(0, 2) // victim: the only decode member
	if f.chaos.Crashes != 0 {
		t.Errorf("crash emptied the decode pool: %+v", f.chaos)
	}
	f.randomCrash(0, 0) // victim: one of two prefill members
	if f.chaos.Crashes != 1 {
		t.Errorf("prefill victim with a prefill survivor was skipped: %+v", f.chaos)
	}
}
