package engine_test

import (
	"fmt"
	"testing"

	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

// checkMetrics asserts that the metrics the executor accumulated over a
// traced run equal, field by field, SKIP's analysis of its trace.
func checkMetrics(t *testing.T, key string, got core.Metrics, tr *trace.Trace) {
	t.Helper()
	want, _, err := core.Analyze(tr)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if got != *want {
		t.Errorf("%s: executor metrics\n%+v\nAnalyze\n%+v", key, got, *want)
	}
}

// TestMetricsMatchAnalyze: on every run TestTraceDigestsPinned pins
// (Run in every mode, RunFused, RunGenerate and the null-kernel
// microbenchmark on every catalog platform), the executor's metrics
// equal core.Analyze's of the run's trace. TimeFused and TimeGenerate
// report what RunFused and RunGenerate do in every field but the nil
// Trace.
func TestMetricsMatchAnalyze(t *testing.T) {
	var runs int
	for _, name := range hw.PlatformNames() {
		p, err := hw.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*models.Config{models.Llama32_1B(), models.BertBaseUncased()} {
			for _, mode := range engine.Modes() {
				for _, bs := range []int64{1, 16} {
					res, err := engine.Run(engine.Request{Platform: p, Model: m, Batch: bs, Seq: 128, Mode: mode})
					if err != nil {
						t.Fatal(err)
					}
					checkMetrics(t, fmt.Sprintf("run/%s/%s/%v/bs%d", name, m.Name, mode, bs), res.Metrics, res.Trace)
					runs++
				}
			}
			for _, app := range []engine.FusionApplication{engine.LaunchSavingsOnly, engine.FullRegionFusion} {
				for _, l := range []int{2, 4} {
					key := fmt.Sprintf("fused/%s/%s/%v/L%d", name, m.Name, app, l)
					req := engine.Request{Platform: p, Model: m, Batch: 1, Seq: 128, Mode: engine.Eager}
					fr, err := engine.RunFused(req, l, app)
					if err != nil {
						t.Fatal(err)
					}
					checkMetrics(t, key, fr.Result.Metrics, fr.Result.Trace)
					runs++
					timed, err := engine.TimeFused(req, l, app)
					if err != nil {
						t.Fatal(err)
					}
					want, got := *fr, *timed
					wantRes, gotRes := *want.Result, *got.Result
					wantRes.Trace = nil
					want.Result, got.Result = nil, nil
					if got != want || gotRes != wantRes {
						t.Errorf("%s: TimeFused = %+v %+v, RunFused = %+v %+v", key, got, gotRes, want, wantRes)
					}
				}
			}
		}
		for _, mode := range []engine.Mode{engine.Eager, engine.Flash} {
			key := fmt.Sprintf("generate/%s/%v", name, mode)
			req := engine.Request{Platform: p, Model: models.Llama32_1B(), Batch: 2, Seq: 64, Mode: mode}
			gr, err := engine.RunGenerate(req, 4)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, key, gr.Metrics, gr.Trace)
			runs++
			timed, err := engine.TimeGenerate(req, 4)
			if err != nil {
				t.Fatal(err)
			}
			want := *gr
			want.Trace = nil
			if *timed != want {
				t.Errorf("%s: TimeGenerate = %+v, RunGenerate = %+v", key, *timed, want)
			}
		}
		tr, m := engine.NullKernelTrace(p, 50)
		checkMetrics(t, "nullkernel/"+name, m, tr)
		runs++
	}
	if runs != len(pinnedTraceDigests) {
		t.Errorf("checked %d runs, %d pinned", runs, len(pinnedTraceDigests))
	}
}

// FuzzMetricsMatchAnalyze: the executor's metrics equal core.Analyze's
// of the trace for any catalog model and platform, mode, batch and
// prefill length; for an eager draw, also under a fusion plan of any
// chain length from 2 to 17 in either application; and, for a decoder
// in eager or flash mode, over a generation of 1 to 8 new tokens,
// whose iterations continue one executor's clocks. Lengths wrap into
// [1, MaxSeq].
func FuzzMetricsMatchAnalyze(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint16(1), uint16(512), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(2), uint8(1), uint16(8), uint16(77), uint8(5), uint8(3))
	f.Add(uint8(1), uint8(3), uint8(3), uint16(63), uint16(514), uint8(1), uint8(1))
	f.Add(uint8(7), uint8(1), uint8(2), uint16(200), uint16(4000), uint8(9), uint8(7))
	f.Add(uint8(2), uint8(1), uint8(4), uint16(3), uint16(9), uint8(30), uint8(2))
	names, plats := models.ModelNames(), hw.PlatformNames()
	f.Fuzz(func(t *testing.T, model, plat, mode uint8, batch, length uint16, chain, tokens uint8) {
		m, err := models.ByName(names[int(model)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		p, err := hw.ByName(plats[int(plat)%len(plats)])
		if err != nil {
			t.Fatal(err)
		}
		modes := engine.Modes()
		req := engine.Request{
			Platform: p, Model: m, Batch: int64(batch%256) + 1,
			Seq: int64(length)%m.MaxSeq + 1, Mode: modes[int(mode)%len(modes)],
		}
		key := fmt.Sprintf("%s/%s/%v/bs%d/seq%d", p.Name, m.Name, req.Mode, req.Batch, req.Seq)
		res, err := engine.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, key, res.Metrics, res.Trace)
		if req.Mode == engine.Eager {
			l, app := int(chain/2%16)+2, engine.FusionApplication(chain%2)
			fr, err := engine.RunFused(req, l, app)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, fmt.Sprintf("%s/L%d/%v", key, l, app), fr.Result.Metrics, fr.Result.Trace)
		}
		if m.Kind == models.Decoder && (req.Mode == engine.Eager || req.Mode == engine.Flash) {
			n := int(tokens%8) + 1
			gr, err := engine.RunGenerate(req, n)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, fmt.Sprintf("%s/generate%d", key, n), gr.Metrics, gr.Trace)
		}
	})
}
