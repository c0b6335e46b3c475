package trace_test

import (
	"slices"
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

// step is one builder call of an emission script: begin or end an
// operator, or emit any other event.
type step struct {
	kind int // beginOp, endOp or emitEvent
	e    trace.Event
}

const (
	beginOp = iota
	endOp
	emitEvent
)

// emissionScript returns the builder calls that re-emit a sorted
// single-thread executor trace as the executor emits it: each operator
// begun at its start and ended before the first host event past its
// span, and each launch call followed at once by its device event.
func emissionScript(tr *trace.Trace) []step {
	device := make(map[uint64]trace.Event)
	for _, e := range tr.Events {
		if e.Cat == trace.CatKernel || e.Cat == trace.CatMemcpy {
			device[e.Correlation] = e
		}
	}
	out := make([]step, 0, len(tr.Events)+len(tr.Events)/2)
	var open []trace.Event // operators containing the current event, outermost first
	closeUntil := func(e *trace.Event) {
		for len(open) > 0 && (e == nil || !open[len(open)-1].Contains(e)) {
			out = append(out, step{endOp, open[len(open)-1]})
			open = open[:len(open)-1]
		}
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Cat {
		case trace.CatOperator:
			closeUntil(e)
			open = append(open, *e)
			out = append(out, step{beginOp, *e})
		case trace.CatRuntime:
			closeUntil(e)
			out = append(out, step{emitEvent, *e})
			if d, ok := device[e.Correlation]; ok && e.Correlation != 0 {
				out = append(out, step{emitEvent, d})
			}
		}
	}
	closeUntil(nil)
	return out
}

// BenchmarkBuilderTrace measures recording and finalizing a llama-3.2-1B
// eager prefill trace (Intel+H100, BS=1, seq 512): a reserved builder
// takes the trace's events in the order the executor emits them, each
// operator begun at its start, and Trace merges the host and device
// runs into start order.
func BenchmarkBuilderTrace(b *testing.B) {
	res, err := engine.Run(engine.Request{Platform: hw.IntelH100(), Model: models.Llama32_1B(), Batch: 1, Seq: 512, Mode: engine.Eager})
	if err != nil {
		b.Fatal(err)
	}
	script := emissionScript(res.Trace)
	n := len(res.Trace.Events)
	open := make([]int, 0, 16)
	record := func() *trace.Trace {
		bl := trace.NewBuilder()
		bl.Grow(n)
		for i := range script {
			e := &script[i].e
			switch {
			case script[i].kind == beginOp:
				open = append(open, bl.Begin(e.Name, e.TID, e.Ts))
			case script[i].kind == endOp:
				bl.End(open[len(open)-1], e.End())
				open = open[:len(open)-1]
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
	merged := false
	trace.OnFinish = func(m bool) { merged = m }
	tr := record()
	trace.OnFinish = nil
	if !slices.Equal(tr.Events, res.Trace.Events) {
		b.Fatal("the re-emitted trace differs from the executor's")
	}
	if !merged {
		b.Fatal("the re-emitted trace was sorted, not merged")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}
