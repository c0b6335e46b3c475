//go:build !race

package bench

import (
	"runtime"
	"testing"
)

// TestPaperPassAllocBytes: one pass over the paper's artifacts, the
// benchmark's paper workload, allocates at most 20 MB (10⁶ bytes); it
// allocated 18.97 MB when written, on linux/amd64 with Go 1.24. Only
// the runs SKIP or the chain miner reads record a trace (see
// TestArtifactsTraceOnlyWhatTheyRead). A pass that traced every run
// allocated 38.1 MB. Tracing fig10's or fig11's sweeps again would add
// 11 MB, and fig3's runs 2.2 MB. The race detector's instrumentation
// allocates, hence the build tag.
func TestPaperPassAllocBytes(t *testing.T) {
	const maxMB = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, id := range paperArtifacts {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if mb > maxMB {
		t.Errorf("one pass over the paper artifacts allocated %.2f MB, want ≤ %d", mb, maxMB)
	}
}
