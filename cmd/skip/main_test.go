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

// TestClassifyOutputPinned pins `skip classify` at the default mode and
// with -mode flash byte for byte. The sweep reads SKIP's metrics from
// untraced runs; this is the output of the traced runs' profiles.
func TestClassifyOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, `batch              TTFT          TKLQT       GPU idle  class
1              35.205ms       22.345ms       17.068ms  CPU-bound
2              38.042ms       52.721ms       14.976ms  CPU-bound
4              40.652ms      125.825ms        7.739ms  balanced
8              53.304ms        2.8171s       672.40µs  GPU-bound
16             92.462ms       13.2531s       408.98µs  GPU-bound
32            171.018ms       36.1337s       158.88µs  GPU-bound
64            328.520ms       85.2221s        94.71µs  GPU-bound
transition: CPU-bound → GPU-bound at BS=8 ★
balanced region (both PUs ≥55% busy): BS 2–8
`},
		{[]string{"-mode", "flash"}, `batch              TTFT          TKLQT       GPU idle  class
1              29.490ms       22.034ms       12.731ms  CPU-bound
2              32.327ms       52.254ms       11.813ms  CPU-bound
4              34.937ms      124.093ms        6.923ms  balanced
8              43.829ms        1.4344s       793.23µs  GPU-bound
16             73.489ms        7.5180s       424.43µs  GPU-bound
32            133.246ms       21.2840s       158.88µs  GPU-bound
64            253.178ms       51.3234s        94.71µs  GPU-bound
transition: CPU-bound → GPU-bound at BS=8 ★
balanced region (both PUs ≥55% busy): BS 1–8
`},
	} {
		got := captureStdout(t, func() error { return cmdClassify(tc.args) })
		if string(got) != tc.want {
			t.Errorf("skip classify %v:\n--- got\n%s--- want\n%s", tc.args, got, tc.want)
		}
	}
}

// TestFlagsOnlyWhereRead: a command rejects a flag it would ignore.
// classify sweeps -batches and writes no trace, and recommend writes no
// trace, so -batch and -o are undefined there.
func TestFlagsOnlyWhereRead(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.json")
	for _, tc := range []struct {
		cmd  func([]string) error
		args []string
		flag string
	}{
		{cmdClassify, []string{"-o", out}, "-o"},
		{cmdClassify, []string{"-batch", "4"}, "-batch"},
		{cmdRecommend, []string{"-o", out}, "-o"},
	} {
		err := tc.cmd(tc.args)
		if err == nil || err.Error() != "flag provided but not defined: "+tc.flag {
			t.Errorf("%v: error = %v, want %s undefined", tc.args, err, tc.flag)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected -o wrote %s", out)
	}
}
