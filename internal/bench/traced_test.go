package bench

import (
	"slices"
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

// TestArtifactsTraceOnlyWhatTheyRead: the artifacts that report only
// latencies, idle times, SKIP's metrics or kernel sequences record no
// trace: the executor reports the metrics, and the chain miner reads
// the lowered graph. fig6 traces one point per platform, to check
// SKIP's analysis of the trace against the executor's metrics, and the
// builder merges each of those traces into start order, never sorting.
func TestArtifactsTraceOnlyWhatTheyRead(t *testing.T) {
	want := map[string]int{
		"table1":                  0,
		"table5":                  0,
		"fig3":                    0,
		"fig5":                    0,
		"fig7":                    0,
		"fig8":                    0,
		"fig9":                    0,
		"fig10":                   0,
		"fig11":                   0,
		"ext1-applied-fusion":     0,
		"ext2-decode":             0,
		"ext3-ablation-cpu":       0,
		"ext4-ablation-launch":    0,
		"ext5-ablation-bandwidth": 0,
		"ext7-tc-projection":      0,
		"fig6":                    len(hw.EvaluationPlatforms()),
	}
	var traces, sorted int
	trace.OnFinish = func(merged bool) {
		traces++
		if !merged {
			sorted++
		}
	}
	defer func() { trace.OnFinish = nil }()
	for id, n := range want {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		traces, sorted = 0, 0
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if traces != n {
			t.Errorf("%s recorded %d traces, want %d", id, traces, n)
		}
		if sorted != 0 {
			t.Errorf("%s sorted %d of its %d traces, want all merged", id, sorted, traces)
		}
	}
}

// TestFusionStudySeqMatchesTrace: the kernel sequence the chain miner
// reads from the lowered eager graph is the one SKIP reads from the
// run's trace, on the fusion study's grid (gpt2 and xlm-roberta-base at
// BS 1, 2 and 4, seq 512, Intel+H100) and on fig5's 7B models (BS 1,
// seq 1024).
func TestFusionStudySeqMatchesTrace(t *testing.T) {
	check := func(m *models.Config, bs, seq int64, got []string) {
		t.Helper()
		r, err := engine.Run(engine.Request{Platform: hw.IntelH100(), Model: m, Batch: bs, Seq: seq, Mode: engine.Eager})
		if err != nil {
			t.Fatal(err)
		}
		if want := fusion.KernelSequence(r.Trace); !slices.Equal(got, want) {
			t.Errorf("%s BS=%d seq %d: graph lists %d kernels, trace %d, or they differ in order",
				m.Name, bs, seq, len(got), len(want))
		}
	}
	for _, name := range []string{"gpt2", "xlm-roberta-base"} {
		m, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range fusionBatches {
			seq, err := fusionStudySeq(m, bs)
			if err != nil {
				t.Fatal(err)
			}
			check(m, bs, 512, seq)
		}
	}
	for _, m := range models.FusionStudyModels() {
		g, err := models.BuildPrefill(m, 1, 1024, models.AttnEager)
		if err != nil {
			t.Fatal(err)
		}
		check(m, 1, 1024, g.KernelNames())
	}
}
