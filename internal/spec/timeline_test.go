package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

// TestTimelineDeterministic: the windowed timeline of a chaotic fleet —
// autoscale joins, a crash, requeues — must reproduce byte for byte
// across two runs of the same seeded spec, per-instance series
// included. Run under -race in CI this also proves the aggregator holds
// no shared state across runs.
func TestTimelineDeterministic(t *testing.T) {
	run := func() *Report {
		s := chaosFleetBase(t)
		s.Observability = &ObservabilitySpec{
			Timeline: &TimelineSpec{IntervalMs: 20, PerInstance: true},
		}
		rep, err := Simulate(s)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Timeline == nil {
			t.Fatal("observability.timeline set but the report carries no timeline")
		}
		return rep
	}
	a, b := run(), run()
	aj, err := json.Marshal(a.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("timelines differ across two runs of the same seeded spec")
	}

	tl := a.Timeline
	iv := sim.Time(20 * 1e6)
	want := int((a.Cluster.Horizon + iv - 1) / iv)
	if tl.Windows != want {
		t.Errorf("windows = %d, want ceil(horizon/interval) = %d", tl.Windows, want)
	}
	for _, s := range tl.Fleet {
		if len(s.Values) != tl.Windows {
			t.Errorf("fleet series %q has %d values, want %d", s.Name, len(s.Values), tl.Windows)
		}
	}

	// Event-derived counters must reconcile with the report ledger.
	var completed float64
	for _, v := range tl.Series("completed") {
		completed += v
	}
	if int(completed) != a.Cluster.Completed {
		t.Errorf("timeline completions sum to %v, ledger says %d", completed, a.Cluster.Completed)
	}

	// A dynamic fleet carries the membership series, and the crash plus
	// autoscale activity must move it.
	active := tl.Series("active_instances")
	if active == nil {
		t.Fatal("cluster timeline lacks the active_instances series")
	}
	min, max := active[0], active[0]
	for _, v := range active {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == max {
		t.Errorf("active_instances is flat at %v under autoscale + crash", min)
	}

	if len(tl.Instances) == 0 {
		t.Fatal("per_instance set but no per-instance series present")
	}
	for _, in := range tl.Instances {
		for _, s := range in.Series {
			if len(s.Values) != tl.Windows {
				t.Errorf("instance %s series %q has %d values, want %d", in.Instance, s.Name, len(s.Values), tl.Windows)
			}
		}
	}
}

// TestTimelineInstanceQueueSumsToFleet: the per-instance queue_depth
// series must sum to the fleet series in every window. A crashed
// instance's waiting requests leave with it, so its own level has to
// fall to zero at the gone event, exactly as its share of the fleet sum
// does.
func TestTimelineInstanceQueueSumsToFleet(t *testing.T) {
	s, err := Load(filepath.Join("..", "..", "examples", "specs", "timeline_chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cluster.Chaos == nil || rep.Cluster.Chaos.Crashes == 0 {
		t.Fatal("timeline_chaos.json ran without a crash; the test needs one")
	}
	tl := rep.Timeline
	fleet := tl.Series("queue_depth")
	for w := 0; w < tl.Windows; w++ {
		var sum float64
		for _, inst := range tl.Instances {
			for _, ser := range inst.Series {
				if ser.Name == "queue_depth" {
					sum += ser.Values[w]
				}
			}
		}
		if d := math.Abs(sum - fleet[w]); d > 1e-9*math.Max(1, math.Abs(fleet[w])) {
			t.Errorf("window %d: per-instance queue_depth sums to %v, fleet series %v", w, sum, fleet[w])
		}
	}
}

// TestTimelineServeKind: a single-instance serve spec gets the same
// windowed fleet series (no instance breakdown — a lone unnamed
// instance has nothing to key on).
func TestTimelineServeKind(t *testing.T) {
	s := testServeSpec()
	s.Serve.Policy = "continuous"
	s.Observability = &ObservabilitySpec{Timeline: &TimelineSpec{IntervalMs: 50, PerInstance: true}}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.Timeline
	if tl == nil {
		t.Fatal("no timeline on a serve-kind report")
	}
	if len(tl.Instances) != 0 {
		t.Errorf("serve kind produced %d per-instance blocks, want 0", len(tl.Instances))
	}
	if tl.Series("queue_depth") == nil || tl.Series("kv_occupancy") == nil {
		t.Error("serve timeline lacks the state-sample series")
	}
	if tl.Series("active_instances") != nil {
		t.Error("serve timeline carries a fleet-membership series")
	}
	var completed float64
	for _, v := range tl.Series("completed") {
		completed += v
	}
	if int(completed) != rep.Serve.Completed {
		t.Errorf("timeline completions sum to %v, ledger says %d", completed, rep.Serve.Completed)
	}
}

// TestTimelineOffLeavesNoResidue: without an observability.timeline
// section the report must not mention timelines at all (the golden
// tests then pin full byte-identity).
func TestTimelineOffLeavesNoResidue(t *testing.T) {
	rep, err := Simulate(testFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "\"timeline\"") {
		t.Error("timeline-off report mentions a timeline section")
	}
	if strings.Contains(string(data), "\"profile\"") {
		t.Error("profile-off report mentions a profile section")
	}
}

func TestTimelineValidation(t *testing.T) {
	s := testFleetSpec()
	s.Observability = &ObservabilitySpec{Timeline: &TimelineSpec{}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "interval_ms") {
		t.Errorf("zero interval_ms: err = %v", err)
	}

	run := &Spec{Platform: "GH200", Model: "llama-3.2-1B", Run: &RunSpec{Batch: 1, Seq: 128}}
	run.Observability = &ObservabilitySpec{Timeline: &TimelineSpec{IntervalMs: 100}}
	if err := run.Validate(); err == nil || !strings.Contains(err.Error(), "workload") {
		t.Errorf("timeline on a run spec: err = %v", err)
	}

	sv := &Spec{
		Platform: "GH200", Model: "llama-3.2-1B",
		Workload: &WorkloadSpec{Requests: 10, RatePerSec: 20},
		Serve:    &ServeSpec{Policy: "static"},
	}
	sv.Observability = &ObservabilitySpec{Timeline: &TimelineSpec{IntervalMs: 100}}
	if err := sv.Validate(); err == nil || !strings.Contains(err.Error(), "continuous") {
		t.Errorf("timeline on a static serve policy: err = %v", err)
	}
}

// TestProfileAttached: WithProfile fills the self-measurement block;
// the simulated numbers are untouched.
func TestProfileAttached(t *testing.T) {
	plain, err := Simulate(testFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Simulate(testFleetSpec(), WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	p := prof.Profile
	if p == nil {
		t.Fatal("WithProfile set but the report carries no profile")
	}
	if p.Events <= 0 || p.EventsPerSec <= 0 {
		t.Errorf("profile counted no events: %+v", p)
	}
	if p.SimulatedNs != int64(prof.Cluster.Horizon) {
		t.Errorf("simulated_ns = %d, want horizon %d", p.SimulatedNs, prof.Cluster.Horizon)
	}
	var batches int
	for _, in := range prof.Cluster.Instances {
		batches += in.Serve.Batches
	}
	if p.Iterations != int64(batches) || batches == 0 || p.IterationsPerSec <= 0 {
		t.Errorf("profile counted %d iterations at %g/s, want the instances' %d batches", p.Iterations, p.IterationsPerSec, batches)
	}
	if p.WallNs <= 0 {
		t.Errorf("wall_ns = %d, want > 0", p.WallNs)
	}
	// The profile tap must not perturb the simulation itself.
	prof.Profile = nil
	pj, _ := ReportJSON(plain)
	qj, _ := ReportJSON(prof)
	if !bytes.Equal(pj, qj) {
		t.Error("profiling changed the simulated report")
	}
}
