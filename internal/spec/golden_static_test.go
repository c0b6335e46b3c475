package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenCase pairs an example spec with its checked-in report golden.
type goldenCase struct {
	spec   string
	golden string
}

// checkGoldens runs each example spec and compares its report JSON
// byte for byte against the golden under testdata/.
func checkGoldens(t *testing.T, cases []goldenCase, why string) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			s, err := Load(filepath.Join("..", "..", "examples", "specs", tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Simulate(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReportJSON(rep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report diverged from the golden %s (%d bytes vs %d); %s",
					tc.golden, len(got), len(want), why)
			}
		})
	}
}

// TestStaticReportsBitIdentical is the lifecycle refactor's core
// invariant: a spec with no fleet.autoscale and no fleet.faults section
// must produce a Report byte-identical to the pre-refactor static path.
// The goldens under testdata/ were captured from the shipped example
// specs before instances could join or leave a running calendar; any
// diff here means the dynamic-membership machinery leaked into the
// static code path (a new JSON field, a changed routing decision, a
// perturbed event order). The legacy_policies golden pins the legacy
// prefill-only static/greedy walk; it was captured before that walk
// priced its batches through the shared step oracle.
func TestStaticReportsBitIdentical(t *testing.T) {
	checkGoldens(t, []goldenCase{
		{"fleet_replay.json", "golden_fleet_replay.json"},
		{"disagg_chat.json", "golden_disagg_chat.json"},
		{"legacy_policies.json", "golden_legacy_policies.json"},
	}, "the static path must stay bit-identical")
}

// TestDynamicReportsBitIdentical pins the dynamic fleets: a monolithic
// fleet through autoscale, a crash and a slow node (chaos_chat.json),
// and a disaggregated one through decode-pool autoscale, a crash and a
// degraded KV-transfer link (disagg_chaos_chat.json). Joins, drains,
// requeues, re-ships and the churn ledger all land in these reports,
// so a refactor of the fleet loop that perturbs any of them shows here.
func TestDynamicReportsBitIdentical(t *testing.T) {
	checkGoldens(t, []goldenCase{
		{"chaos_chat.json", "golden_chaos_chat.json"},
		{"disagg_chaos_chat.json", "golden_disagg_chaos_chat.json"},
	}, "autoscale, faults and requeues must stay bit-identical")
}

// TestPrefixCacheReportBitIdentical pins a fleet report that carries a
// prefix-cache section: the pooled ledger and every instance's, with
// hits, restores, spills and reuse credit all nonzero.
func TestPrefixCacheReportBitIdentical(t *testing.T) {
	checkGoldens(t, []goldenCase{
		{"prefix_cache_agentic.json", "golden_prefix_cache_agentic.json"},
	}, "the cache ledger and its report block must stay bit-identical")
}
