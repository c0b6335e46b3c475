//go:build !race

package models

import (
	"runtime/debug"
	"testing"
)

// TestBuildDecodeStepAllocs: a llama-3.2-1B decode-step graph costs one
// allocation per operator tree of its shared layer block (two for a
// shape-named GEMM), plus the graph, its name and its node list — not
// one per node, child slice and kernel slice. The name is built with
// strconv appends, so the count (41) does not move with batch or KV
// length. The race detector's instrumentation allocates, hence the
// build tag; a collection cycle can allocate too, hence no GC while
// counting.
func TestBuildDecodeStepAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := Llama32_1B()
	for _, shape := range [][2]int64{{8, 512}, {1, 64}, {16, 2048}} {
		allocs := testing.AllocsPerRun(20, func() {
			g, err := BuildDecodeStep(c, shape[0], shape[1], AttnEager)
			if err != nil {
				t.Fatal(err)
			}
			benchGraph = g
		})
		if allocs > 43 {
			t.Errorf("BuildDecodeStep(batch %d, kv %d) allocates %.0f times, want ≤ 43", shape[0], shape[1], allocs)
		}
	}
}
