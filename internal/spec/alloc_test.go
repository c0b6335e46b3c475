//go:build !race

package spec

import (
	"path/filepath"
	"testing"
)

// TestAllocsPerEventFlatInLength is the run-length axis of the cost per
// event: for the chat and disaggregated-chaos fleet shapes (the
// benchmark's chat8 and disagg_chaos workloads, scaled down), a run of
// 4× the requests must allocate no more per event than 1.25× the 1×
// run. A per-event cost that grows with the run, such as an allocation
// per queued request that lengthens under saturation, fails here
// instead of waiting for a profile. The 4× run goes first, so the step
// oracle is warm for both measured runs. Both runs also pay the run's
// fixed allocations (instances, report assembly), which weigh more at
// 1×; on a 2-vCPU Xeon (Go 1.24.0) chat8 made 0.45 allocations per
// event at 1× and 0.10 at 4×, disagg_chaos 0.86 and 0.45.
func TestAllocsPerEventFlatInLength(t *testing.T) {
	const maxRatio = 1.25
	for _, c := range []struct {
		workload string
		requests int // at 1×
	}{
		{"chat8", 300},
		{"disagg_chaos", 200},
	} {
		t.Run(c.workload, func(t *testing.T) {
			perEvent := func(requests int) float64 {
				s, err := Load(filepath.Join("..", "..", "benchmark", "workloads", c.workload+".json"))
				if err != nil {
					t.Fatal(err)
				}
				s.Workload.Requests = requests
				rep, err := Simulate(s, WithProfile())
				if err != nil {
					t.Fatal(err)
				}
				return rep.Profile.AllocsPerEvent
			}
			perEvent(4 * c.requests)
			one, four := perEvent(c.requests), perEvent(4*c.requests)
			t.Logf("%s allocations per event: %.3f at %d requests, %.3f at %d", c.workload, one, c.requests, four, 4*c.requests)
			if four > maxRatio*one {
				t.Errorf("%s allocates %.3f per event at %d requests, over %.2f× the %.3f at %d",
					c.workload, four, 4*c.requests, maxRatio, one, c.requests)
			}
		})
	}
}
