package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBatches(t *testing.T) {
	got, err := parseBatches("1,2, 4,64")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 2, 4, 64}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseBatches = %v, want %v", got, want)
	}
	// Each of these used to parse by skipping non-digits: "1.5,x,-4"
	// ran batch 15 and then batch 4.
	for _, bad := range []string{"", "1.5,x,-4", "1,,2", "0", "-4", "x", "8,", "1e3", "99999999999999999999"} {
		_, err := parseBatches(bad)
		if err == nil || !strings.HasPrefix(err.Error(), "classify: -batches: ") {
			t.Errorf("parseBatches(%q) error = %v, want a classify: -batches: error", bad, err)
		}
	}
}

// TestSimTraceOutNeedsRunSpec pins that `skip sim -o` with a serve,
// fleet or sweep spec fails before anything runs: the -events-out file,
// created just before the simulation starts, must not exist.
func TestSimTraceOutNeedsRunSpec(t *testing.T) {
	for _, name := range []string{"single_node_chat", "fleet_replay", "sweep_rate"} {
		dir := t.TempDir()
		events := filepath.Join(dir, "events.jsonl")
		err := cmdSim([]string{
			"-spec", filepath.Join("..", "..", "examples", "specs", name+".json"),
			"-o", filepath.Join(dir, "trace.json"),
			"-events-out", events,
		})
		if err == nil || !strings.Contains(err.Error(), "-o needs a run spec") {
			t.Errorf("%s: error = %v, want the -o kind check", name, err)
		}
		if _, statErr := os.Stat(events); !os.IsNotExist(statErr) {
			t.Errorf("%s: -o was rejected only after the simulation started (%s exists)", name, events)
		}
	}

	// A run spec still writes its trace.
	dir := t.TempDir()
	specPath := filepath.Join(dir, "run.json")
	if err := os.WriteFile(specPath, []byte(`{"platform":"GH200","model":"gpt2","run":{"batch":1,"seq":64}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.json")
	if err := cmdSim([]string{"-spec", specPath, "-json", "-o", tracePath}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("run spec -o wrote no trace: %v", err)
	}
}
