//go:build !race

package engine

import (
	"runtime/debug"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

// TestStepModelMissAllocs: a decode oracle miss, measured as
// BenchmarkStepModelMiss/decode does (a fresh private llama-3.2-1B
// model on GH200, eager, filling one key), costs the graph build's ~43
// allocations plus the model's and the executor's few, not one per
// operator node. The race detector's instrumentation allocates, hence
// the build tag; a collection cycle can allocate too, hence no GC while
// counting.
func TestStepModelMissAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, m := hw.GH200(), models.Llama32_1B()
	allocs := testing.AllocsPerRun(20, func() {
		sm, err := NewStepModel(p, m, Eager, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sm.DecodeStep(8, 512); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 55 {
		t.Errorf("a decode oracle miss allocates %.0f times, want ≤ 55", allocs)
	}
}
