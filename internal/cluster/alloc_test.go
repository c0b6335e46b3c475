//go:build !race

package cluster

import "testing"

// TestDecisionRecordAllocs: a warm Record (see warmRecord) allocates
// nothing, amortized: the alternatives are ranked in a reused scratch
// buffer and copied into a slab that allocates one chunk per 1024 kept
// alternatives, and the decision log grows by doubling. The race
// detector's instrumentation allocates, hence the build tag.
func TestDecisionRecordAllocs(t *testing.T) {
	record := warmRecord(t)
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Fatalf("a warm decision record allocates %.1f times, want 0", allocs)
	}
}
