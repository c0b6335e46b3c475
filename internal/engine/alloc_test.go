//go:build !race

package engine

import (
	"runtime/debug"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

// TestStepModelMissAllocs: an oracle miss, measured as
// BenchmarkStepModelMiss does (a fresh private llama-3.2-1B model on
// GH200, eager, filling one key), costs the graph build's allocations
// plus the model's few. The fold that times the graph allocates
// nothing, so a miss is 47 allocations in either phase, not one per
// operator node. The race detector's instrumentation allocates, hence
// the build tag; a collection cycle can allocate too, hence no GC while
// counting.
func TestStepModelMissAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, m := hw.GH200(), models.Llama32_1B()
	for _, c := range []struct {
		phase string
		fill  func(*StepModel) error
	}{
		{"prefill", func(sm *StepModel) error { _, err := sm.Prefill(1, 512); return err }},
		{"decode", func(sm *StepModel) error { _, err := sm.DecodeStep(8, 512); return err }},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			sm, err := NewStepModel(p, m, Eager, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.fill(sm); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 49 {
			t.Errorf("a %s oracle miss allocates %.0f times, want ≤ 49", c.phase, allocs)
		}
	}
}
