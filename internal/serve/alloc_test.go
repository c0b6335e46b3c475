//go:build !race

package serve

import "testing"

// TestSchedulerIterationAllocs: one warm finish plus kick (see
// warmIteration) allocates nothing: the calendar recycles the
// iteration's event, the batch slice is reused, and the state series
// grows by whole chunks, far less than once per round. The race
// detector's instrumentation allocates, hence the build tag.
func TestSchedulerIterationAllocs(t *testing.T) {
	round, check := warmIteration(t)
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a warm finish plus kick allocates %.1f times, want 0", allocs)
	}
	check()
}

// TestArrivalCycleAllocs: a warm arrival → admit → finish cycle (see
// warmArrival) allocates nothing, amortized: requests are carved from
// 256-slot chunks, the wait queue keeps its array when its head is
// popped, the calendar recycles events, and the per-request latency
// records grow by doubling, far less than once per cycle.
func TestArrivalCycleAllocs(t *testing.T) {
	cycle := warmArrival(t)
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a warm request cycle allocates %.1f times, want 0", allocs)
	}
}
