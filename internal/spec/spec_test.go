package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// serveSpecJSON is a fully-populated serve spec document.
const serveSpecJSON = `{
  "platform": "GH200",
  "model": "llama-3.2-1B",
  "mode": "eager",
  "workload": {
    "scenario": "chat",
    "requests": 12,
    "rate_per_sec": 20,
    "seed": 7,
    "prompt": {"mean": 256, "sigma": 0.5, "min": 32, "max": 512},
    "output": {"mean": 32, "sigma": 0.4, "min": 4, "max": 64}
  },
  "serve": {
    "policy": "continuous",
    "max_batch": 16,
    "seq": 256,
    "latency_bucket": 256,
    "ttft_slo_ms": 500
  }
}`

func TestSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "a.json")
	if err := os.WriteFile(src, []byte(serveSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	first, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "b.json")
	if err := Save(first, saved); err != nil {
		t.Fatal(err)
	}
	second, err := Load(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("Load∘Save∘Load is not the identity:\n first %+v\nsecond %+v", first, second)
	}
	third, err := Parse([]byte(serveSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Workload, third.Workload) || !reflect.DeepEqual(first.Serve, third.Serve) {
		t.Error("Parse and Load disagree on the same document")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	for name, doc := range map[string]string{
		"top-level": `{"platform": "GH200", "model": "llama-3.2-1B", "bogus": 1,
			"run": {"batch": 1, "seq": 128}}`,
		"nested serve": `{"platform": "GH200", "model": "llama-3.2-1B",
			"workload": {"requests": 4, "rate_per_sec": 1},
			"serve": {"polcy": "continuous"}}`,
		"nested workload": `{"platform": "GH200", "model": "llama-3.2-1B",
			"workload": {"requests": 4, "rate": 1}, "serve": {}}`,
		"trailing content": `{"platform": "GH200", "model": "llama-3.2-1B",
			"run": {"batch": 1, "seq": 128}} {"again": true}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: Parse should reject the document", name)
		}
	}
}

func TestValidateErrorPaths(t *testing.T) {
	base := func() *Spec {
		s, err := Parse([]byte(serveSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string
	}{
		{"no sections", func(s *Spec) { s.Workload, s.Serve = nil, nil }, "needs a run, serve, or fleet"},
		{"run plus serve", func(s *Spec) { s.Run = &RunSpec{Batch: 1, Seq: 128} }, "run"},
		{"missing workload", func(s *Spec) { s.Workload = nil }, "workload"},
		{"missing model", func(s *Spec) { s.Model = "" }, "model"},
		{"unknown model", func(s *Spec) { s.Model = "nope" }, "model"},
		{"unknown mode", func(s *Spec) { s.Mode = "warp" }, "mode"},
		{"unknown platform", func(s *Spec) { s.Platform = "nope" }, "platform"},
		{"missing platform", func(s *Spec) { s.Platform = "" }, "platform"},
		{"both platforms", func(s *Spec) { s.PlatformFile = "x.json" }, "platform"},
		{"bad rate", func(s *Spec) { s.Workload.RatePerSec = -3 }, "workload.rate_per_sec"},
		{"bad requests", func(s *Spec) { s.Workload.Requests = 0 }, "workload.requests"},
		{"bad scenario", func(s *Spec) { s.Workload.Scenario = "nope" }, "workload.scenario"},
		{"bad arrival", func(s *Spec) {
			s.Workload.Scenario, s.Workload.Arrival = "", "sometimes"
			s.Workload.Prompt, s.Workload.Output = nil, nil
		}, "workload.arrival"},
		{"bad prompt mean", func(s *Spec) { s.Workload.Prompt.Mean = 0 }, "workload.prompt.mean"},
		{"interval on scenario", func(s *Spec) { s.Workload.IntervalMs = 50 }, "workload.interval_ms"},
		{"turns on chat", func(s *Spec) { s.Workload.Turns = 8 }, "workload.turns"},
		{"bad policy", func(s *Spec) { s.Serve.Policy = "nope" }, "serve.policy"},
		{"bad kv util", func(s *Spec) { s.Serve.KVMemoryUtil = 1.5 }, "serve.kv_memory_util"},
		{"bad slo", func(s *Spec) { s.Serve.TTFTSLOMs = -1 }, "serve.ttft_slo_ms"},
		{"prefill-only scenario", func(s *Spec) { s.Serve.Policy = "static"; s.Serve.BatchSize = 4 }, "serve.policy"},
		{"trace plus scenario", func(s *Spec) { s.Workload.TraceFile = "t.csv" }, "workload.trace_file"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate should fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantPath) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantPath)
		}
	}
}

func TestValidateFleet(t *testing.T) {
	base := func() *Spec {
		s, err := Parse([]byte(serveSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		s.Platform = ""
		s.Fleet = &FleetSpec{Groups: []FleetGroupSpec{
			{Platform: "GH200", Count: 1},
			{Platform: "Intel+H100", Count: 2},
		}}
		return s
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("fleet spec should validate: %v", err)
	}
	cases := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string
	}{
		{"top-level platform", func(s *Spec) { s.Platform = "GH200" }, "platform"},
		{"no groups", func(s *Spec) { s.Fleet.Groups = nil }, "fleet.groups"},
		{"zero count", func(s *Spec) { s.Fleet.Groups[0].Count = 0 }, "fleet.groups[0].count"},
		{"negative count", func(s *Spec) { s.Fleet.Groups[1].Count = -3 }, "fleet.groups[1].count"},
		{"missing group platform", func(s *Spec) { s.Fleet.Groups[0].Platform = "" }, "fleet.groups[0].platform"},
		{"unknown group platform", func(s *Spec) { s.Fleet.Groups[1].Platform = "nope" }, "fleet.groups[1].platform"},
		{"duplicate platform", func(s *Spec) { s.Fleet.Groups[1].Platform = "GH200" }, "fleet.groups[1].platform"},
		{"bad router", func(s *Spec) { s.Fleet.Router = "nope" }, "fleet.router"},
		{"bad admit rate", func(s *Spec) { s.Fleet.AdmitRatePerSec = -1 }, "fleet.admit_rate_per_sec"},
		{"legacy policy in fleet", func(s *Spec) { s.Serve.Policy = "greedy" }, "serve.policy"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate should fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantPath) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantPath)
		}
	}
}

func TestKindSelection(t *testing.T) {
	run := &Spec{Run: &RunSpec{Batch: 1, Seq: 128}}
	srv := &Spec{Serve: &ServeSpec{}}
	fleet := &Spec{Serve: &ServeSpec{}, Fleet: &FleetSpec{}}
	if run.Kind() != KindRun || srv.Kind() != KindServe || fleet.Kind() != KindCluster {
		t.Errorf("kinds = %v/%v/%v, want run/serve/cluster", run.Kind(), srv.Kind(), fleet.Kind())
	}
}
