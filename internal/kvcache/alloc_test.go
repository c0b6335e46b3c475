//go:build !race

package kvcache

import "testing"

// TestAcquireReleaseAllocs: a warm round trip (see warmRound) allocates
// nothing, although its steady state keeps dropping host blocks and
// allocating fresh ones: every miss reuses a dropped block from the
// free list. The race detector's instrumentation allocates, hence the
// build tag.
func TestAcquireReleaseAllocs(t *testing.T) {
	round, c := warmRound(t)
	before := c.Stats()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a warm acquire/release round allocates %.1f times, want 0", allocs)
	}
	after := c.Stats()
	if after.HostEvictions == before.HostEvictions || after.Misses == before.Misses {
		t.Fatalf("the rounds never dropped a host block and missed: %+v → %+v", before, after)
	}
}
