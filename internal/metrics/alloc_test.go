//go:build !race

package metrics

import "testing"

// TestStateSampleObserveAllocs: a warm Observe of an EventStateSample
// (see warmStateSample) allocates nothing: the sample arrives by value,
// one map lookup finds the instance's levels entry and scope, and the
// window slots already exist. The race detector's instrumentation
// allocates, hence the build tag.
func TestStateSampleObserveAllocs(t *testing.T) {
	observe, _ := warmStateSample()
	if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
		t.Fatalf("a warm state-sample Observe allocates %.1f times, want 0", allocs)
	}
}
