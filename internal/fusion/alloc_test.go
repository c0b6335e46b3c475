//go:build !race

package fusion

import (
	"runtime/debug"
	"testing"
)

// TestAnalyzeAllocsFlatInLength: mining compares interned windows in
// place, so the allocation count does not grow with the chain length.
// The race detector's instrumentation allocates, hence the build tag;
// a collection cycle can allocate too, hence no GC while counting.
func TestAnalyzeAllocsFlatInLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seq := layeredSequence(32)
	allocs := func(l int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Analyze(seq, l); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(2)
	for _, l := range StandardLengths() {
		if a := allocs(l); a > base {
			t.Errorf("L=%d: %.0f allocations, more than the %.0f at L=2", l, a, base)
		}
	}
}
