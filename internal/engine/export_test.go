package engine

import (
	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/trace"
)

// NullKernelTrace runs MeasureNullKernel's n launches on p traced, and
// returns the trace with the executor's metrics of the run.
func NullKernelTrace(p *hw.Platform, n int) (*trace.Trace, core.Metrics) {
	ex := nullKernels(p, n, trace.NewBuilder())
	return ex.b.Trace(), ex.metrics()
}
