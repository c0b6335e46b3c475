//go:build !race

package engine

import (
	"runtime/debug"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

// TestStepModelMissAllocs: an oracle miss on a fresh model, measured as
// BenchmarkStepModelMiss does (a fresh private llama-3.2-1B model on
// GH200, filling one key), costs one allocation per operator tree it
// builds (two for a shape-named GEMM) plus the model's few. The fold
// that times the operators allocates nothing, so a miss is not one
// allocation per graph node. An eager prefill miss builds the graph: 48
// allocations. A compile-default prefill miss also lowers it, without
// running an executor: the flat kernel list, the fused list and one
// name per fused pointwise run, 82. A decode miss builds each decode
// part once, into the model's reused buffer, with no graph or node
// list: 46. Each count includes the six that make the first key's
// latency table row and page. The race detector's instrumentation
// allocates, hence the build tag; a collection cycle can allocate too,
// hence no GC while counting.
func TestStepModelMissAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, m := hw.GH200(), models.Llama32_1B()
	for _, c := range []struct {
		phase string
		mode  Mode
		fill  func(*StepModel) error
		max   float64
	}{
		{"prefill", Eager, func(sm *StepModel) error { _, err := sm.Prefill(1, 512); return err }, 49},
		{"prefill", CompileDefault, func(sm *StepModel) error { _, err := sm.Prefill(1, 512); return err }, 82},
		{"decode", Eager, func(sm *StepModel) error { _, err := sm.DecodeStep(8, 512); return err }, 49},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			sm, err := NewStepModel(p, m, c.mode, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.fill(sm); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("a %v %s oracle miss allocates %.0f times, want ≤ %.0f", c.mode, c.phase, allocs, c.max)
		}
	}
}

// TestStepModelSeenBatchMissAllocs: a decode miss at a batch the model
// has seen builds only the attention's operators, six under eager
// attention, two of them shape-named GEMMs: 8 allocations. The key is
// forgotten after each fill so every run misses at the same KV length,
// as BenchmarkStepModelMiss's decode-seen-batch case does.
func TestStepModelSeenBatchMissAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sm, err := NewStepModel(hw.GH200(), models.Llama32_1B(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.DecodeStep(8, 64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sm.DecodeStep(8, 512); err != nil {
			t.Fatal(err)
		}
		sm.forgetDecode(8, 512)
	})
	if allocs > 8 {
		t.Errorf("a decode miss at a seen batch allocates %.0f times, want ≤ 8", allocs)
	}
}

// TestStepModelHitAllocs: a warm hit in either phase allocates nothing;
// it reads the phase's latency table through atomic loads.
func TestStepModelHitAllocs(t *testing.T) {
	sm, err := NewStepModel(hw.GH200(), models.Llama32_1B(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		phase string
		hit   func() error
	}{
		{"prefill", func() error { _, err := sm.Prefill(1, 512); return err }},
		{"decode", func() error { _, err := sm.DecodeStep(8, 512); return err }},
	} {
		if err := c.hit(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := c.hit(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("a warm %s hit allocates %.1f times, want 0", c.phase, allocs)
		}
	}
}
