package bench

import (
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/trace"
)

// TestArtifactsTraceOnlyWhatTheyRead: the artifacts that report only
// latencies and idle times record no trace. fig6 traces its sweep for
// SKIP, and fig9 traces only its eager runs, for the chain miner, not
// its reduce-overhead runs.
func TestArtifactsTraceOnlyWhatTheyRead(t *testing.T) {
	want := map[string]int{
		"table1":                  0,
		"fig3":                    0,
		"fig10":                   0,
		"fig11":                   0,
		"ext3-ablation-cpu":       0,
		"ext4-ablation-launch":    0,
		"ext5-ablation-bandwidth": 0,
		"ext7-tc-projection":      0,
		"fig6":                    len(encoderModels) * len(hw.EvaluationPlatforms()) * len(encoderBatches),
		"fig9":                    len(fusionBatches),
	}
	var traces int
	trace.OnFinish = func(bool) { traces++ }
	defer func() { trace.OnFinish = nil }()
	for id, n := range want {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		traces = 0
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if traces != n {
			t.Errorf("%s recorded %d traces, want %d", id, traces, n)
		}
	}
}
