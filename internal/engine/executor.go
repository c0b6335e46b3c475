package engine

import (
	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// Trace identifiers: the host dispatch thread and the device stream
// PyTorch eager mode uses for compute.
const (
	mainThreadTID = 1
	defaultStream = 7
)

// executor runs lowerings on one platform. Each primitive advances its
// clocks by the span fold.go gives it and, with a trace builder,
// records the primitive's events; a nil builder records nothing.
// Consecutive runs on one executor continue its clocks, so they model
// consecutive iterations.
//
// The executor records each event at its start: an operator is begun
// when its dispatch starts and ended after everything it contains. The
// host clock and the stream's kernel starts only move forward, so the
// host events and the device events each come out in start order, and
// the builder merges them without a sort. Traced or not, it
// accumulates SKIP's metrics (§III-A) over everything it runs.
type executor struct {
	clocks
	fo folder
	b  *trace.Builder
	// cpuBusy is host time spent dispatching and in launch calls;
	// gpuBusy is stream time spent on kernels and copies.
	cpuBusy, gpuBusy sim.Time
	// launches counts host-visible launch calls: a replayed CUDA graph
	// is one.
	launches int
	// m holds the metrics' running terms: TKLQT, the delay extremes,
	// GPUBusy and the counts. metrics derives the rest.
	m core.Metrics
	// open counts operators begun and not yet ended. opStart is the
	// first top-level operator's start and launchStart the first kernel
	// launch's, IL's start with and without operators; kernelEnd is the
	// last kernel's end.
	open                            int
	opStart, launchStart, kernelEnd sim.Time
}

func newExecutor(p *hw.Platform, b *trace.Builder) *executor {
	return &executor{fo: newFolder(p), b: b}
}

// result runs l once, reserving the trace for every event it records
// first, and reports the run. The run starts at t = 0 and ends in a
// synchronize, so the host clock is the trace span, the TTFT.
func (ex *executor) result(req Request, l *lowering) *Result {
	if ex.b != nil {
		ex.b.Grow(l.events(ex.fo.p))
	}
	ex.run(l)
	return &Result{
		Request:      req,
		Trace:        ex.b.Trace(),
		TTFT:         ex.c,
		HostLaunches: ex.launches,
		KernelCount:  ex.m.KernelCount,
		GPUBusy:      ex.gpuBusy,
		CPUBusy:      ex.cpuBusy,
		GPUIdle:      ex.c - ex.gpuBusy,
		CPUIdle:      ex.c - ex.cpuBusy,
		Metrics:      ex.metrics(),
	}
}

// metrics derives SKIP's metrics over everything ex has run, as
// core.Analyze derives them from the trace. CPUBusy, the union of the
// host's operator and launch-call spans, is the summed host time: on
// the one host thread those spans either nest or follow each other,
// and an operator spans only its dispatch and its contents, since a
// synchronize never runs inside one. A run that launched no kernel,
// which Analyze rejects, reports its counts alone.
func (ex *executor) metrics() core.Metrics {
	m := ex.m
	n := sim.Time(m.KernelCount)
	if n == 0 {
		return m
	}
	m.MeanDelay = m.TKLQT / n
	m.AKD = m.GPUBusy / n
	if m.TKLQT > 0 {
		m.QueueShare = float64(m.TKLQT-n*m.MinDelay) / float64(m.TKLQT)
	}
	start := ex.launchStart
	if m.ParentOps > 0 {
		start = ex.opStart
	}
	m.IL = ex.kernelEnd - start
	m.GPUIdle = m.IL - m.GPUBusy
	m.CPUBusy = ex.cpuBusy
	m.CPUIdle = max(m.IL-m.CPUBusy, 0)
	return m
}

// kernel accounts one device kernel of duration d, starting at start
// and launched by a call that started at launchAt, in the metrics.
func (ex *executor) kernel(launchAt, start, d sim.Time) {
	m := &ex.m
	delay := start - launchAt
	if m.KernelCount == 0 {
		m.MinDelay, ex.launchStart = delay, launchAt
	}
	m.KernelCount++
	m.TKLQT += delay
	m.MinDelay = min(m.MinDelay, delay)
	m.MaxDelay = max(m.MaxDelay, delay)
	m.GPUBusy += d
	ex.kernelEnd = max(ex.kernelEnd, start+d)
}

// begin opens an operator span at ts; a span begun with none open is
// a top-level (parent) operator. core.Analyze recovers the same nesting
// from the trace by containment as long as every operator's dispatch
// takes host time, as every catalog operator's does: each child then
// starts strictly inside its parent's span.
func (ex *executor) begin(name string, ts sim.Time) int {
	if ex.open == 0 {
		if ex.m.ParentOps == 0 {
			ex.opStart = ts
		}
		ex.m.ParentOps++
	}
	ex.open++
	ex.m.TotalOps++
	return ex.b.Begin(name, mainThreadTID, ts)
}

// end closes the operator span op at the host clock.
func (ex *executor) end(op int) {
	ex.open--
	ex.b.End(op, ex.c)
}

// run executes l inside the bracket every run shares: the input copy,
// the body, a synchronize (the per-iteration sync a generation loop
// performs when sampling the next token on the host) and, without
// unified virtual memory, the output copy and a second synchronize.
// GH200 reads host memory directly over NVLink-C2C, and MI300A shares
// physical memory, so neither copies.
func (ex *executor) run(l *lowering) {
	uvm := ex.fo.p.UnifiedVirtualMemory
	if !uvm {
		ex.copy("Memcpy HtoD", l.g.InputBytes)
	}
	switch l.body {
	case walkBody:
		var cu *cursor
		if l.plan != nil {
			cu = &cursor{plan: l.plan}
		}
		for _, n := range l.g.Nodes {
			ex.node(n, cu)
		}
	case listBody:
		op := ex.begin(l.op, ex.c)
		for i := range l.ks {
			ex.dispatch(l.hostNs)
			ex.launch(&l.ks[i])
		}
		ex.end(op)
	default:
		ex.replay(l.ks)
	}
	ex.sync()
	if !uvm {
		ex.copy("Memcpy DtoH", l.g.OutputBytes)
		ex.sync()
	}
}

// node walks n in PyTorch-eager order: the operator's host dispatch,
// its children in order, then its kernels, each replaced as cu says.
// The operator's span covers its children, the containment structure
// SKIP's parent linking relies on.
func (ex *executor) node(n *ops.Node, cu *cursor) {
	op := ex.begin(n.Name, ex.c)
	ex.dispatch(n.CPUNs)
	for _, c := range n.Children {
		ex.node(c, cu)
	}
	for i := range n.Kernels {
		if k := cu.at(&n.Kernels[i]); k != nil {
			ex.launch(k)
		}
	}
	ex.end(op)
}

// dispatch spends baseNs of framework host time.
func (ex *executor) dispatch(baseNs float64) {
	s := ex.fo.dispatch(baseNs)
	ex.advance(s)
	ex.cpuBusy += s.cpu
}

// launch issues one cudaLaunchKernel of k.
func (ex *executor) launch(k *ops.Kernel) {
	d := ex.fo.duration(k.Cost)
	t := ex.advance(ex.fo.launch(d))
	ex.launches++
	ex.m.LaunchCount++
	ex.cpuBusy += ex.fo.launchCPU
	ex.gpuBusy += d
	ex.kernel(t, ex.f-d, d)
	corr := ex.b.NextCorrelation()
	ex.b.Launch("cudaLaunchKernel", mainThreadTID, t, ex.fo.launchCPU, corr)
	ex.b.Kernel(k.Name, defaultStream, ex.f-d, d, corr, k.Cost.FLOPs, k.Cost.Bytes())
}

// copy issues one cudaMemcpyAsync of bytes, named for its direction.
func (ex *executor) copy(name string, bytes float64) {
	if ex.fo.elided(bytes) {
		return
	}
	d := ex.fo.p.TransferTime(bytes)
	t := ex.advance(ex.fo.launch(d))
	ex.m.LaunchCount++
	ex.cpuBusy += ex.fo.launchCPU
	ex.gpuBusy += d
	corr := ex.b.NextCorrelation()
	ex.b.Launch("cudaMemcpyAsync", mainThreadTID, t, ex.fo.launchCPU, corr)
	ex.b.Memcpy(name, defaultStream, ex.f-d, d, corr, bytes)
}

// sync is cudaDeviceSynchronize, recorded as a runtime span covering
// the host's wait.
func (ex *executor) sync() {
	t := ex.c
	ex.clocks.sync()
	ex.b.Runtime("cudaDeviceSynchronize", mainThreadTID, t, ex.c-t)
}

// replay launches ks as one captured CUDA graph under a
// CUDAGraphReplay operator span, begun just after the cudaGraphLaunch
// call that starts with it. Each node kernel is recorded with a
// zero-cost cudaGraphNodeLaunch at the end of that one call, so every
// kernel correlation keeps its own launch while the host pays once.
func (ex *executor) replay(ks []ops.Kernel) {
	s := ex.fo.replay(ks)
	t := ex.advance(s)
	if len(ks) > 0 {
		ex.launches++
		ex.m.LaunchCount++
		ex.cpuBusy += s.cpu
		ex.gpuBusy += s.stream
		ex.b.Launch("cudaGraphLaunch", mainThreadTID, t, s.cpu, ex.b.NextCorrelation())
	}
	op := ex.begin("CUDAGraphReplay", t)
	ex.m.LaunchCount += len(ks)
	at := ex.f - s.stream
	for i := range ks {
		k := &ks[i]
		d := ex.fo.duration(k.Cost)
		ex.kernel(t+s.cpu, at, d)
		corr := ex.b.NextCorrelation()
		ex.b.Launch("cudaGraphNodeLaunch", mainThreadTID, t+s.cpu, 0, corr)
		ex.b.Kernel(k.Name, defaultStream, at, d, corr, k.Cost.FLOPs, k.Cost.Bytes())
		at += d
	}
	ex.end(op)
}

// NullKernelResult reports the Table V microbenchmark outcome.
type NullKernelResult struct {
	Platform string
	// LaunchOverheadNs is mean t_l = tsb(kernel) − tsb(launch).
	LaunchOverheadNs float64
	// DurationNs is mean kernel execution duration.
	DurationNs float64
}

// MeasureNullKernel reproduces the paper's §V-A microbenchmark: launch n
// empty kernels on an idle stream, synchronizing after each so no queuing
// occurs, and measure mean launch overhead and duration. The run records
// no trace; the means are the executor's sums over its kernels.
func MeasureNullKernel(p *hw.Platform, n int) NullKernelResult {
	m := nullKernels(p, n, nil).metrics()
	if m.KernelCount == 0 {
		return NullKernelResult{Platform: p.Name}
	}
	k := float64(m.KernelCount)
	return NullKernelResult{
		Platform:         p.Name,
		LaunchOverheadNs: float64(m.TKLQT) / k,
		DurationNs:       float64(m.GPUBusy) / k,
	}
}

// nullKernels runs the microbenchmark's n launches on p, each followed
// by a synchronize, recording them with b.
func nullKernels(p *hw.Platform, n int, b *trace.Builder) *executor {
	b.Grow(3 * n) // a launch, a kernel and a synchronize each
	ex := newExecutor(p, b)
	null := ops.Kernel{Name: "nullKernel"}
	for i := 0; i < n; i++ {
		ex.launch(&null)
		ex.sync()
	}
	return ex
}
