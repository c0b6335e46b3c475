package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

// TestMergeSortedMatchesSort: merging ascending runs gives what sorting
// their concatenation gives, over random run counts (none and one
// included), empty runs and duplicate values within and across runs.
func TestMergeSortedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		runs := make([][]sim.Time, rng.Intn(12))
		var all []sim.Time
		for i := range runs {
			run := make([]sim.Time, rng.Intn(4)*rng.Intn(20)) // a quarter empty
			for j := range run {
				run[j] = sim.Time(rng.Intn(30)) // few values: many duplicates
			}
			slices.Sort(run)
			runs[i] = run
			all = append(all, run...)
		}
		slices.Sort(all)
		if got := mergeSorted(runs); !slices.Equal(got, all) {
			t.Fatalf("trial %d: merge of %d runs = %v, sort gives %v", trial, len(runs), got, all)
		}
	}
}
