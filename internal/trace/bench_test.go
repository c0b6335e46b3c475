package trace_test

import (
	"cmp"
	"slices"
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

// emissionOrder returns a sorted single-thread executor trace's events
// in the order the executor emitted them: an operator once it ends,
// after everything it contains (post-order), and each launch call
// followed at once by its device event.
func emissionOrder(tr *trace.Trace) []trace.Event {
	device := make(map[uint64]trace.Event)
	for _, e := range tr.Events {
		if e.Cat == trace.CatKernel || e.Cat == trace.CatMemcpy {
			device[e.Correlation] = e
		}
	}
	out := make([]trace.Event, 0, len(tr.Events))
	var open []trace.Event // operators containing the current event, outermost first
	closeUntil := func(e *trace.Event) {
		for len(open) > 0 && (e == nil || !open[len(open)-1].Contains(e)) {
			out = append(out, open[len(open)-1])
			open = open[:len(open)-1]
		}
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Cat {
		case trace.CatOperator:
			closeUntil(e)
			open = append(open, *e)
		case trace.CatRuntime:
			closeUntil(e)
			out = append(out, *e)
			if d, ok := device[e.Correlation]; ok && e.Correlation != 0 {
				out = append(out, d)
			}
		}
	}
	closeUntil(nil)
	return out
}

// BenchmarkBuilderTrace measures recording and finalizing a llama-3.2-1B
// eager prefill trace (Intel+H100, BS=1, seq 512): a reserved builder
// takes the trace's events in the order the executor emits them, each
// operator after its children, and Trace sorts them into start order.
func BenchmarkBuilderTrace(b *testing.B) {
	res, err := engine.Run(engine.Request{Platform: hw.IntelH100(), Model: models.Llama32_1B(), Batch: 1, Seq: 512, Mode: engine.Eager})
	if err != nil {
		b.Fatal(err)
	}
	emitted := emissionOrder(res.Trace)
	if len(emitted) != len(res.Trace.Events) || slices.IsSortedFunc(emitted, func(x, y trace.Event) int { return cmp.Compare(x.Ts, y.Ts) }) {
		b.Fatalf("re-emitted %d events, want %d out of start order", len(emitted), len(res.Trace.Events))
	}
	record := func() *trace.Trace {
		bl := trace.NewBuilder()
		bl.Grow(len(emitted))
		for _, e := range emitted {
			switch {
			case e.Cat == trace.CatOperator:
				bl.Operator(e.Name, e.TID, e.Ts, e.Dur)
			case e.Cat == trace.CatKernel:
				bl.Kernel(e.Name, e.Stream, e.Ts, e.Dur, e.Correlation, e.FLOPs, e.Bytes)
			case e.Cat == trace.CatMemcpy:
				bl.Memcpy(e.Name, e.Stream, e.Ts, e.Dur, e.Correlation, e.Bytes)
			case e.Correlation == 0:
				bl.Runtime(e.Name, e.TID, e.Ts, e.Dur)
			default:
				bl.Launch(e.Name, e.TID, e.Ts, e.Dur, e.Correlation)
			}
		}
		return bl.Trace()
	}
	if tr := record(); !slices.Equal(tr.Events, res.Trace.Events) {
		b.Fatal("the re-emitted trace does not sort back into the executor's")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}
