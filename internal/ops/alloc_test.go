//go:build !race

package ops

import (
	"runtime/debug"
	"testing"
)

// TestConstructorAllocs: each constructor allocates its whole tree as
// one block, plus the kernel name when that carries a label or a shape
// (Linear, Conv1D, BMM, Embedding). The race detector's instrumentation
// allocates, hence the build tag; a collection cycle can allocate too,
// hence no GC while counting.
func TestConstructorAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	named := map[string]bool{"Linear": true, "Conv1D": true, "BMM": true, "Embedding": true}
	for _, op := range oneOfEach {
		want := 1.0
		if named[op.name] {
			want = 2
		}
		if got := testing.AllocsPerRun(100, func() { benchNode = op.build() }); got != want {
			t.Errorf("%s allocates %.0f times, want %.0f", op.name, got, want)
		}
	}
}
