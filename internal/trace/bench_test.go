package trace_test

import (
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

// BenchmarkBuilderTrace measures recording and finalizing a llama-3.2-1B
// eager prefill trace (Intel+H100, BS=1, seq 512): a reserved builder
// takes the trace's events the way an executor emits them, host events
// in start order with each launch followed by its device event, and
// Trace sorts them.
func BenchmarkBuilderTrace(b *testing.B) {
	res, err := engine.Run(engine.Request{Platform: hw.IntelH100(), Model: models.Llama32_1B(), Batch: 1, Seq: 512, Mode: engine.Eager})
	if err != nil {
		b.Fatal(err)
	}
	device := make(map[uint64]trace.Event)
	var host []trace.Event
	for _, e := range res.Trace.Events {
		switch e.Cat {
		case trace.CatKernel, trace.CatMemcpy:
			device[e.Correlation] = e
		default:
			host = append(host, e)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := trace.NewBuilder()
		bl.Grow(len(res.Trace.Events))
		for _, e := range host {
			switch {
			case e.Cat == trace.CatOperator:
				bl.Operator(e.Name, e.TID, e.Ts, e.Dur)
			case e.Correlation == 0:
				bl.Runtime(e.Name, e.TID, e.Ts, e.Dur)
			default:
				bl.Launch(e.Name, e.TID, e.Ts, e.Dur, e.Correlation)
				if d, ok := device[e.Correlation]; ok && d.Cat == trace.CatKernel {
					bl.Kernel(d.Name, d.Stream, d.Ts, d.Dur, d.Correlation, d.FLOPs, d.Bytes)
				} else if ok {
					bl.Memcpy(d.Name, d.Stream, d.Ts, d.Dur, d.Correlation, d.Bytes)
				}
			}
		}
		if tr := bl.Trace(); len(tr.Events) != len(res.Trace.Events) {
			b.Fatalf("rebuilt %d events, want %d", len(tr.Events), len(res.Trace.Events))
		}
	}
}
