package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// TestPlatformSLOWeightsFirstTokens: on a disaggregated fleet the
// per-platform SLO column weighs each member by the first tokens it
// served. Every first token of disagg_chat comes from the Intel+H100
// prefill pool, so that platform's row reads the pooled attainment,
// and the decode-only GH200 pool, which served none, reads "-".
func TestPlatformSLOWeightsFirstTokens(t *testing.T) {
	out := string(captureStdout(t, func() error {
		return cmdSim([]string{"-spec", filepath.Join("..", "..", "examples", "specs", "disagg_chat.json")})
	}))
	pooled := regexp.MustCompile(`(\d+%) in SLO`).FindStringSubmatch(out)
	if pooled == nil {
		t.Fatalf("no pooled SLO line in:\n%s", out)
	}
	if pooled[1] != "100%" {
		t.Errorf("pooled attainment %s, want 100%%", pooled[1])
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 6 && (f[0] == "Intel+H100" || f[0] == "GH200") {
			rows[f[0]] = f[5]
		}
	}
	if got := rows["Intel+H100"]; got != pooled[1] {
		t.Errorf("Intel+H100 (prefill) platform SLO %q, want the pooled %q\n%s", got, pooled[1], out)
	}
	if got := rows["GH200"]; got != "-" {
		t.Errorf("GH200 (decode-only) platform SLO %q, want \"-\"\n%s", got, out)
	}
}
