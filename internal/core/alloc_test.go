//go:build !race

package core_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

// TestBuildGraphAllocsFlat: BuildGraph allocates slabs, not nodes, so
// its allocation count does not depend on the trace size: a BS=16
// llama-3.2-1B eager trace (more events than BS=1) costs the same
// number. The race detector's instrumentation allocates, hence the
// build tag; a collection cycle can allocate too, hence no GC while
// counting.
func TestBuildGraphAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(bs int64) (float64, int) {
		res, err := engine.Run(engine.Request{Platform: hw.GH200(), Model: models.Llama32_1B(), Batch: bs, Seq: 512, Mode: engine.Eager})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := core.BuildGraph(res.Trace); err != nil {
				t.Fatal(err)
			}
		}), len(res.Trace.Events)
	}
	a1, n1 := allocs(1)
	a16, n16 := allocs(16)
	if a1 != a16 {
		t.Errorf("BuildGraph allocates %.0f times on %d events (BS=1) but %.0f on %d (BS=16), want equal", a1, n1, a16, n16)
	}
}

// TestBuildGraphCopiesNoEvents: the graph points into the trace instead
// of copying its events, so building it over the BS=16 llama-3.2-1B
// eager trace allocates less than half an event's size per event. A
// graph holding a copy of each operator and launch event would
// allocate more than an event's size per event. As in
// TestBuildGraphAllocsFlat, no collection runs while counting.
func TestBuildGraphCopiesNoEvents(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	res, err := engine.Run(engine.Request{Platform: hw.GH200(), Model: models.Llama32_1B(), Batch: 16, Seq: 512, Mode: engine.Eager})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.BuildGraph(res.Trace); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := len(res.Trace.Events)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n)*uint64(unsafe.Sizeof(trace.Event{}))/2
	t.Logf("BuildGraph allocated %d bytes on %d events (%.1f per event)", got, n, float64(got)/float64(n))
	if got >= limit {
		t.Errorf("BuildGraph allocated %d bytes on %d events, want under %d (half an event each)", got, n, limit)
	}
}
