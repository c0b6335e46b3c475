package skip_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	skip "github.com/skipsim/skip"
	"github.com/skipsim/skip/internal/trace"
)

func TestPublicCatalogs(t *testing.T) {
	if got := len(skip.Platforms()); got != 3 {
		t.Errorf("Platforms = %d, want 3", got)
	}
	if got := len(skip.Models()); got != 4 {
		t.Errorf("Models = %d, want 4 (Table III)", got)
	}
	if got := len(skip.FusionStudyModels()); got != 3 {
		t.Errorf("FusionStudyModels = %d, want 3", got)
	}
	if len(skip.PlatformNames()) < 4 || len(skip.ModelNames()) < 8 {
		t.Error("catalog names incomplete")
	}
	if _, err := skip.PlatformByName(skip.GH200); err != nil {
		t.Error(err)
	}
	if _, err := skip.ModelByName("gpt2"); err != nil {
		t.Error(err)
	}
}

func TestPublicRunProfilePipeline(t *testing.T) {
	res, err := skip.Run(skip.GH200, "bert-base-uncased", 1, 512, skip.ModeEager)
	if err != nil {
		t.Fatal(err)
	}
	m, g, err := skip.Profile(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if m.TKLQT <= 0 || m.AKD <= 0 || m.IL <= 0 {
		t.Errorf("metrics: %+v", m)
	}
	if skip.ClassifyRun(m) != skip.CPUBound {
		t.Error("GH200 BS=1 bert should be CPU-bound")
	}
	top := g.TopKernels(5, 0)
	if len(top) != 5 {
		t.Errorf("TopKernels = %d", len(top))
	}
}

func TestPublicRunRejectsUnknownNames(t *testing.T) {
	if _, err := skip.Run("TPU", "gpt2", 1, 512, skip.ModeEager); err == nil {
		t.Error("unknown platform should fail")
	}
	if _, err := skip.Run(skip.GH200, "gpt5", 1, 512, skip.ModeEager); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestPublicFusionRecommendation(t *testing.T) {
	res, err := skip.Run(skip.IntelH100, "gpt2", 1, 512, skip.ModeEager)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := skip.RecommendFusion(res.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 9 {
		t.Errorf("standard lengths rows = %d, want 9", len(rep.Rows))
	}
	best, err := rep.BestSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	if best.IdealSpeedup < 2.0 {
		t.Errorf("gpt2 best ideal speedup = %.2f, want >2 (paper: 2.7)", best.IdealSpeedup)
	}
	if got := len(skip.KernelSequence(res.Trace)); got != res.KernelCount {
		t.Errorf("KernelSequence = %d, want %d", got, res.KernelCount)
	}
}

func TestPublicNullKernel(t *testing.T) {
	p, _ := skip.PlatformByName(skip.GH200)
	r := skip.MeasureNullKernel(p, 10)
	if r.LaunchOverheadNs < 2770 || r.LaunchOverheadNs > 2773 {
		t.Errorf("launch overhead = %.1f", r.LaunchOverheadNs)
	}
}

func TestPublicExperiments(t *testing.T) {
	if got := len(skip.Experiments()); got < 12 {
		t.Errorf("Experiments = %d, want ≥12", got)
	}
	e, err := skip.ExperimentByID("table5")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestTraceRoundTripThroughPublicAPI(t *testing.T) {
	// Run → save → load → profile: the offline-analysis workflow.
	res, err := skip.Run(skip.IntelH100, "gpt2", 2, 256, skip.ModeEager)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := res.Trace.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := skip.Profile(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := skip.Profile(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if m1.TKLQT != m2.TKLQT || m1.KernelCount != m2.KernelCount || m1.IL != m2.IL {
		t.Errorf("metrics diverge across save/load: %+v vs %+v", m1, m2)
	}
}

func TestSweepHelpersThroughPublicAPI(t *testing.T) {
	var gh, intel []skip.SeriesPoint
	for _, bs := range []int64{1, 4, 16, 64} {
		for _, tgt := range []struct {
			plat string
			dst  *[]skip.SeriesPoint
		}{{skip.GH200, &gh}, {skip.IntelH100, &intel}} {
			res, err := skip.Run(tgt.plat, "bert-base-uncased", bs, 512, skip.ModeEager)
			if err != nil {
				t.Fatal(err)
			}
			m, _, err := skip.Profile(res.Trace)
			if err != nil {
				t.Fatal(err)
			}
			*tgt.dst = append(*tgt.dst, skip.SeriesPoint{Batch: bs, TKLQT: m.TKLQT, TTFT: res.TTFT, Metrics: m})
		}
	}
	if _, err := skip.TransitionBatch(gh); err != nil {
		t.Error(err)
	}
	cp, err := skip.Crossover(gh, intel)
	if err != nil {
		t.Fatal(err)
	}
	if cp == 0 {
		t.Error("GH200 should overtake Intel within BS≤64")
	}
	if _, _, ok := skip.BalancedRegion(gh, 0.6); !ok {
		t.Error("no balanced region found at generous bound")
	}
}

// TestPublicClusterPipeline drives the fleet simulator end to end
// through the exported API: one fleet spec per routing policy over a
// heterogeneous two-instance fleet, checking the fleet-level request
// ledger.
func TestPublicClusterPipeline(t *testing.T) {
	fleetSpec := func(router string) *skip.Spec {
		return &skip.Spec{
			Model: "gpt2",
			Mode:  "eager",
			Workload: &skip.WorkloadSpec{
				Scenario: "chat", Requests: 12, RatePerSec: 100, Seed: 5,
				Prompt: &skip.LengthDistSpec{Mean: 48, Sigma: 0.5, Min: 16, Max: 96},
				Output: &skip.LengthDistSpec{Mean: 4, Sigma: 0.5, Min: 2, Max: 8},
			},
			Serve: &skip.ServeSpec{Policy: "continuous", Seq: 64, MaxBatch: 8},
			Fleet: &skip.FleetSpec{
				Groups: []skip.FleetGroupSpec{
					{Platform: skip.GH200, Count: 1},
					{Platform: skip.IntelH100, Count: 1},
				},
				Router: router,
			},
		}
	}
	for _, policy := range skip.RouterPolicies() {
		rep, err := skip.Simulate(fleetSpec(policy.String()))
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if rep.Kind != skip.KindCluster {
			t.Fatalf("%v: kind = %v, want cluster", policy, rep.Kind)
		}
		stats := rep.Cluster
		if stats.Completed != 12 || stats.Offered != stats.Routed {
			t.Errorf("%v: ledger %+v", policy, stats)
		}
		if len(stats.Instances) != 2 {
			t.Errorf("%v: %d instances", policy, len(stats.Instances))
		}
	}
	if _, err := skip.ParseRouterPolicy("least-kv"); err != nil {
		t.Error(err)
	}
	bad := fleetSpec("least-kv")
	bad.Fleet.Groups[0].Count = 0
	if _, err := skip.Simulate(bad); err == nil {
		t.Error("a fleet group without instances should fail")
	}
}

// TestSpecAPI pins the declarative entry point at the public surface:
// the shipped fleet-replay spec loads, simulates deterministically, and
// round-trips through SaveSpec.
func TestSpecAPI(t *testing.T) {
	sp, err := skip.LoadSpec("examples/specs/fleet_replay.json")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind() != skip.KindCluster {
		t.Fatalf("fleet_replay.json kind = %v, want cluster", sp.Kind())
	}

	var completions int
	rep, err := skip.Simulate(sp, skip.WithObserver(func(e skip.Event) {
		if e.Type == skip.EventCompleted {
			completions++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != skip.KindCluster || rep.Cluster == nil {
		t.Fatalf("report kind = %v", rep.Kind)
	}
	if rep.Cluster.Completed != rep.Offered || completions != rep.Cluster.Completed {
		t.Errorf("completed %d of %d offered (%d completion events)",
			rep.Cluster.Completed, rep.Offered, completions)
	}

	// The acceptance criterion: replaying the same spec reproduces the
	// numbers exactly.
	again, err := skip.Simulate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cluster.P99TTFT != rep.Cluster.P99TTFT || again.Cluster.TokensPerSec != rep.Cluster.TokensPerSec {
		t.Error("fleet replay is not deterministic across Simulate calls")
	}

	// Round-trip: the saved document must reload to the same spec.
	// (Comparison is via JSON form — the reloaded spec resolves its
	// relative trace path against the temp dir, not the original.)
	saved := filepath.Join(t.TempDir(), "fleet_replay.json")
	if err := skip.SaveSpec(sp, saved); err != nil {
		t.Fatal(err)
	}
	reloaded, err := skip.LoadSpec(saved)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(reloaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("SaveSpec∘LoadSpec changed the document:\n want %s\n got  %s", want, got)
	}
	if _, err := skip.ParseSpec([]byte(`{"model":"llama-3.2-1B","bogus":1,"run":{"batch":1,"seq":64}}`)); err == nil {
		t.Error("ParseSpec should reject unknown fields")
	}
}
