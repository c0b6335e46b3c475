package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a file and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = stdout
	if runErr != nil {
		t.Fatal(runErr)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSimTextGolden pins the `skip sim` text reports of a monolithic
// fleet, a disaggregated fleet under churn and faults, and a single
// serving instance byte for byte against testdata/sim_<spec>.txt.
func TestSimTextGolden(t *testing.T) {
	for _, name := range []string{"fleet_replay", "disagg_chaos_chat", "single_node_chat"} {
		t.Run(name, func(t *testing.T) {
			got := captureStdout(t, func() error {
				return cmdSim([]string{"-spec", filepath.Join("..", "..", "examples", "specs", name+".json")})
			})
			want, err := os.ReadFile(filepath.Join("testdata", "sim_"+name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("skip sim text report diverged from testdata/sim_%s.txt:\n--- got\n%s--- want\n%s", name, got, want)
			}
		})
	}
}
