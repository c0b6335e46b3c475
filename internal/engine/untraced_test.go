package engine_test

import (
	"fmt"
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

// TestTimeMatchesRun: on TestTraceDigestsPinned's Run grid (every mode
// on every catalog platform, llama-3.2-1B and bert-base-uncased, batch
// 1 and 16, seq 128), Time reports what Run does in every Result field
// except Trace, which it leaves nil. Run's KernelCount, counted by the
// executor, equals the kernels its trace holds.
func TestTimeMatchesRun(t *testing.T) {
	for _, name := range hw.PlatformNames() {
		p, err := hw.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*models.Config{models.Llama32_1B(), models.BertBaseUncased()} {
			for _, mode := range engine.Modes() {
				for _, bs := range []int64{1, 16} {
					req := engine.Request{Platform: p, Model: m, Batch: bs, Seq: 128, Mode: mode}
					key := fmt.Sprintf("%s/%s/%v/bs%d", name, m.Name, mode, bs)
					run, err := engine.Run(req)
					if err != nil {
						t.Fatal(err)
					}
					timed, err := engine.Time(req)
					if err != nil {
						t.Fatal(err)
					}
					if timed.Trace != nil {
						t.Errorf("%s: Time recorded a trace", key)
					}
					if n := run.Trace.Count(trace.CatKernel); run.KernelCount != n {
						t.Errorf("%s: KernelCount %d, trace holds %d kernels", key, run.KernelCount, n)
					}
					want := *run
					want.Trace = nil
					if *timed != want {
						t.Errorf("%s: Time = %+v, Run = %+v", key, *timed, want)
					}
				}
			}
		}
	}
}

// TestPinnedTracesMerge: every trace TestTraceDigestsPinned's grid
// records comes out of the executor with its host and device events
// each in start order, so the builder merges it and never sorts. The
// grid records one trace per pinned run but the null-kernel
// microbenchmark's, which runs untraced.
func TestPinnedTracesMerge(t *testing.T) {
	var merged, sorted int
	trace.OnFinish = func(m bool) {
		if m {
			merged++
		} else {
			sorted++
		}
	}
	defer func() { trace.OnFinish = nil }()
	traceDigestGrid(t)
	want := len(pinnedTraceDigests) - len(hw.PlatformNames())
	if sorted != 0 || merged != want {
		t.Errorf("%d traces merged and %d sorted, want all %d merged", merged, sorted, want)
	}
}
