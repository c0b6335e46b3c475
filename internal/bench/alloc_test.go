//go:build !race

package bench

import (
	"runtime"
	"testing"
)

// TestPaperPassAllocBytes: one pass over the paper's artifacts, the
// benchmark's paper workload, allocates at most 5.5 MB (10⁶ bytes); it
// allocated 4.85 MB when written, on linux/amd64 with Go 1.24, and the
// bound leaves 0.65 MB (13%) for toolchain drift. The artifacts read
// SKIP's metrics from the executor and kernel sequences from the
// graph, so only fig6's three cross-check runs record a trace (see
// TestArtifactsTraceOnlyWhatTheyRead). When fig5, fig6's sweep, fig7,
// fig8, fig9's eager runs and table5 traced, a pass allocated
// 18.97 MB: fig6's 42 traced runs alone 8.6 MB against 0.95 MB now,
// fig5's 3.7 MB against 0.43 MB. The race detector's instrumentation
// allocates, hence the build tag.
func TestPaperPassAllocBytes(t *testing.T) {
	const maxMB = 5.5
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
		t.Errorf("one pass over the paper artifacts allocated %.2f MB, want ≤ %.1f", mb, maxMB)
	}
}
