// Package engine executes model operator graphs on simulated platforms,
// reproducing the PyTorch execution modes the paper compares (§II-C,
// Fig. 2): eager kernel-to-kernel offload, domain-specific fusion
// (FlashAttention-2), and whole-graph synthesis (torch.compile with CUDA
// Graphs), including the compile-time cost model of Table I.
package engine

import (
	"fmt"
	"math"

	"github.com/skipsim/skip/internal/cuda"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// Mode is a PyTorch execution mode.
type Mode int

const (
	// Eager launches kernels as operators are interpreted (the paper's
	// baseline for every figure).
	Eager Mode = iota
	// Flash is eager execution with FlashAttention-2 fused attention.
	Flash
	// CompileDefault is torch.compile mode="default": Triton pointwise
	// fusion, compiled host code, no CUDA graph.
	CompileDefault
	// CompileReduceOverhead is mode="reduce-overhead": pointwise fusion
	// plus CUDA-graph capture/replay.
	CompileReduceOverhead
	// CompileMaxAutotune is mode="max-autotune": fusion, autotuned GEMM
	// templates, fused attention, CUDA-graph replay.
	CompileMaxAutotune
)

// String names the mode as the paper's tables do.
func (m Mode) String() string {
	switch m {
	case Eager:
		return "eager"
	case Flash:
		return "flash_attention_2"
	case CompileDefault:
		return "compile-default"
	case CompileReduceOverhead:
		return "compile-reduce-overhead"
	case CompileMaxAutotune:
		return "compile-max-autotune"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Modes lists all execution modes in comparison order.
func Modes() []Mode {
	return []Mode{Eager, Flash, CompileDefault, CompileReduceOverhead, CompileMaxAutotune}
}

// ParseMode maps a mode name — a String() result or the common CLI
// shorthands — back to the Mode.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "eager":
		return Eager, nil
	case "flash", "flash_attention_2":
		return Flash, nil
	case "compile-default":
		return CompileDefault, nil
	case "compile-reduce-overhead":
		return CompileReduceOverhead, nil
	case "compile-max-autotune":
		return CompileMaxAutotune, nil
	}
	return 0, fmt.Errorf("engine: unknown mode %q (have eager|flash|compile-default|compile-reduce-overhead|compile-max-autotune)", name)
}

// Compile-time model (Table I): measured on Gemma-2B (BS=1, seq 1024,
// Intel+H100). Other models scale by parameter count; slower CPUs scale
// inversely by single-thread score, since graph tracing and Triton
// compilation are host-bound.
const (
	warmupEagerSec            = 0.40644
	compileDefaultSec         = 6.2844
	compileReduceOverheadSec  = 12.7469
	compileMaxAutotuneSec     = 387.3
	compileParamScaleExponent = 0.85
)

// compiledDispatchNs is the per-kernel host cost of inductor-generated
// wrapper code in CompileDefault (no Python dispatcher, no ATen stack).
const compiledDispatchNs = 800.0

// maxAutotuneGemmSpeedup is the throughput edge of autotuned GEMM
// templates over stock library kernels.
const maxAutotuneGemmSpeedup = 1.12

// mainThreadTID identifies the dispatch thread in traces.
const mainThreadTID = 1

// Request describes one simulated inference run.
type Request struct {
	Platform *hw.Platform
	Model    *models.Config
	Batch    int64
	Seq      int64
	Mode     Mode
}

// Result is the outcome of a run.
type Result struct {
	Request Request
	// Trace is the profiler trace of the steady-state iteration. It is
	// excluded from JSON reports — Chrome-trace files have their own
	// serialization (Trace.SaveFile, the CLI's -o flag).
	Trace *trace.Trace `json:"-"`
	// TTFT is the prefill latency: first operator start to last kernel
	// end (matches SKIP's IL, Eq. 4).
	TTFT sim.Time
	// CompileTime is the one-time warmup/compilation cost of the mode
	// (Table I); not part of TTFT.
	CompileTime sim.Time
	// HostLaunches counts host-visible launch calls (1 for a replayed
	// CUDA graph).
	HostLaunches int
	// KernelCount counts kernels executed on the device.
	KernelCount int
	// GPUBusy is total kernel execution time.
	GPUBusy sim.Time
	// CPUBusy is total host dispatch + launch-call time.
	CPUBusy sim.Time
	// GPUIdle is TTFT − GPUBusy (Eq. 5).
	GPUIdle sim.Time
	// CPUIdle is TTFT − CPUBusy.
	CPUIdle sim.Time
}

// validate checks that the request names a valid platform and a model.
func (r Request) validate() error {
	if r.Platform == nil || r.Model == nil {
		return fmt.Errorf("engine: request needs a platform and a model")
	}
	if err := r.Platform.Validate(); err != nil {
		return err
	}
	return nil
}

// Run simulates one prefill iteration of the request and returns its
// timing plus the profiler trace.
func Run(req Request) (*Result, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	b := trace.NewBuilder()
	b.Meta("platform", req.Platform.Name)
	b.Meta("model", req.Model.Name)
	b.Meta("mode", req.Mode.String())
	b.Meta("batch", fmt.Sprintf("%d", req.Batch))
	b.Meta("seq", fmt.Sprintf("%d", req.Seq))
	graph, err := models.BuildPrefill(req.Model, req.Batch, req.Seq, req.Mode.attention())
	if err != nil {
		return nil, err
	}
	ex := newExecutor(req, b)
	if err := ex.run(graph); err != nil {
		return nil, err
	}

	tr := b.Trace()
	start, end := tr.Span()
	res := &Result{
		Request:      req,
		Trace:        tr,
		TTFT:         end - start,
		CompileTime:  compileTime(req),
		HostLaunches: ex.rt.Launches(),
		KernelCount:  tr.Count(trace.CatKernel),
		GPUBusy:      ex.rt.GPUBusy(),
		CPUBusy:      ex.cpuBusy,
	}
	res.GPUIdle = res.TTFT - res.GPUBusy
	res.CPUIdle = res.TTFT - res.CPUBusy
	return res, nil
}

// attention picks the attention implementation the mode runs: fused
// FlashAttention-2 for flash and max-autotune, materialized scores
// otherwise.
func (m Mode) attention() models.AttnImpl {
	if m == Flash || m == CompileMaxAutotune {
		return models.AttnFlash
	}
	return models.AttnEager
}

type executor struct {
	req     Request
	rt      *cuda.Runtime
	builder *trace.Builder
	cpuBusy sim.Time
}

// newExecutor returns an executor for req on a fresh runtime (clocks at
// t = 0) recording into b; a nil b records nothing.
func newExecutor(req Request, b *trace.Builder) *executor {
	return &executor{req: req, rt: cuda.NewRuntime(req.Platform, b, mainThreadTID), builder: b}
}

// run executes one prefill graph the way the request's mode does. A
// traced run first reserves the trace for every event it will record,
// so no append regrows it; a trace-free run skips the count.
func (ex *executor) run(g *ops.Graph) error {
	switch ex.req.Mode {
	case Eager, Flash:
		if ex.builder != nil {
			ex.builder.Grow(ex.traceEvents(g, nil))
		}
		ex.runEager(g)
	case CompileDefault, CompileReduceOverhead, CompileMaxAutotune:
		ks := ex.compiledKernels(g)
		ex.builder.Grow(ex.traceEvents(g, ks))
		if ex.req.Mode == CompileDefault {
			ex.runCompiledEagerHost(g, ks)
		} else {
			ex.runGraphReplay(g, ks)
		}
	default:
		return fmt.Errorf("engine: unknown mode %v", ex.req.Mode)
	}
	return nil
}

// traceEvents returns how many events run records for g: in eager
// modes an operator span per node visit and a launch plus a kernel per
// kernel; in compiled modes one host span, a graph launch when
// replayed, and a launch plus a kernel per compiled kernel in ks. Both
// end in a synchronize; platforms without unified virtual memory add
// the input and output copies (a call and a copy each) and the output
// synchronize. The count is exact unless the platform elides a copy.
func (ex *executor) traceEvents(g *ops.Graph, ks []ops.Kernel) int {
	n := 1
	if !ex.req.Platform.UnifiedVirtualMemory {
		n += 5
	}
	switch ex.req.Mode {
	case Eager, Flash:
		return n + g.NodeCount() + 2*g.KernelCount()
	case CompileDefault:
		return n + 1 + 2*len(ks)
	default:
		return n + 2 + 2*len(ks)
	}
}

// advanceCPU spends host time (scaled by the platform's single-thread
// score) and accounts it as busy.
func (ex *executor) advanceCPU(baseNs float64) {
	d := ex.req.Platform.CPUTime(baseNs)
	ex.rt.CPU.Advance(d)
	ex.cpuBusy += d
}

// launch issues one kernel, accounting the launch-call CPU time.
func (ex *executor) launch(k ops.Kernel) {
	before := ex.rt.CPU.Now()
	ex.rt.LaunchKernel(k.Name, k.Cost, cuda.DefaultStream)
	ex.cpuBusy += ex.rt.CPU.Now() - before
}

// transferInputs moves token ids/masks to the device on platforms
// without unified virtual memory (the GH200 reads host memory directly
// over NVLink-C2C; MI300A shares physical memory).
func (ex *executor) transferInputs(g *ops.Graph) {
	if ex.req.Platform.UnifiedVirtualMemory {
		return
	}
	before := ex.rt.CPU.Now()
	ex.rt.Memcpy(cuda.HostToDevice, g.InputBytes, cuda.DefaultStream)
	ex.cpuBusy += ex.rt.CPU.Now() - before
}

// transferOutputs copies results back after synchronization.
func (ex *executor) transferOutputs(g *ops.Graph) {
	if ex.req.Platform.UnifiedVirtualMemory {
		return
	}
	before := ex.rt.CPU.Now()
	ex.rt.Memcpy(cuda.DeviceToHost, g.OutputBytes, cuda.DefaultStream)
	ex.cpuBusy += ex.rt.CPU.Now() - before
	ex.rt.Synchronize()
}

// runEager walks the operator tree in PyTorch-eager order: each operator
// costs host dispatch time, children execute in order, then the
// operator's kernels launch. Operator trace spans cover their children,
// which is the containment structure SKIP's parent linking relies on.
// The walk continues the executor's timeline and ends in a
// synchronize, the per-iteration sync a generation loop performs when
// sampling the next token on the host, so consecutive graphs on one
// executor model consecutive iterations.
func (ex *executor) runEager(g *ops.Graph) {
	ex.transferInputs(g)
	for _, n := range g.Nodes {
		ex.execNode(n)
	}
	ex.rt.Synchronize()
	ex.transferOutputs(g)
}

func (ex *executor) execNode(n *ops.Node) {
	start := ex.rt.CPU.Now()
	ex.advanceCPU(n.CPUNs)
	for _, c := range n.Children {
		ex.execNode(c)
	}
	for _, k := range n.Kernels {
		ex.launch(k)
	}
	end := ex.rt.CPU.Now()
	ex.builder.Operator(n.Name, mainThreadTID, start, end-start)
}

// compiledKernels lowers the graph to the kernel list a torch.compile
// backend would emit for the mode: pointwise fusion always; autotuned
// GEMM/attention templates for max-autotune.
func (ex *executor) compiledKernels(g *ops.Graph) []ops.Kernel {
	ks := ops.FuseElementwise(g.FlattenKernels(), 2)
	if ex.req.Mode == CompileMaxAutotune {
		for i := range ks {
			if ks[i].Class == ops.ClassGemm || ks[i].Class == ops.ClassAttention {
				ks[i].Cost = ks[i].Cost.Scale(1 / maxAutotuneGemmSpeedup)
				ks[i].Name = "autotuned_" + ks[i].Name
			}
		}
	}
	return ks
}

// runCompiledEagerHost models torch.compile mode="default": compiled
// host code dispatches the fused kernel list one launch at a time — no
// Python/ATen overhead, but still a launch call per kernel.
func (ex *executor) runCompiledEagerHost(g *ops.Graph, ks []ops.Kernel) {
	ex.transferInputs(g)
	start := ex.rt.CPU.Now()
	for _, k := range ks {
		ex.advanceCPU(compiledDispatchNs)
		ex.launch(k)
	}
	end := ex.rt.CPU.Now()
	ex.builder.Operator("CompiledFunction", mainThreadTID, start, end-start)
	ex.rt.Synchronize()
	ex.transferOutputs(g)
}

// runGraphReplay models reduce-overhead/max-autotune: the fused kernel
// list is captured once into a CUDA graph and replayed with a single
// launch.
func (ex *executor) runGraphReplay(g *ops.Graph, ks []ops.Kernel) {
	ex.transferInputs(g)
	if err := ex.rt.BeginCapture(); err != nil {
		panic("engine: " + err.Error()) // impossible: fresh runtime
	}
	for _, k := range ks {
		ex.rt.LaunchKernel(k.Name, k.Cost, cuda.DefaultStream)
	}
	graph, err := ex.rt.EndCapture()
	if err != nil {
		panic("engine: " + err.Error())
	}
	start := ex.rt.CPU.Now()
	before := ex.rt.CPU.Now()
	ex.rt.LaunchGraph(graph, cuda.DefaultStream)
	ex.cpuBusy += ex.rt.CPU.Now() - before
	end := ex.rt.CPU.Now()
	ex.builder.Operator("CUDAGraphReplay", mainThreadTID, start, end-start)
	ex.rt.Synchronize()
	ex.transferOutputs(g)
}

// compileTime models Table I: one-time tracing/compilation cost, scaled
// from the Gemma-2B anchor by parameter count and host speed.
func compileTime(req Request) sim.Time {
	var baseSec float64
	switch req.Mode {
	case Eager, Flash:
		baseSec = warmupEagerSec
	case CompileDefault:
		baseSec = compileDefaultSec
	case CompileReduceOverhead:
		baseSec = compileReduceOverheadSec
	case CompileMaxAutotune:
		baseSec = compileMaxAutotuneSec
	}
	refParams := float64(models.Gemma2B().Params())
	scale := math.Pow(float64(req.Model.Params())/refParams, compileParamScaleExponent)
	score := req.Platform.CPU.SingleThreadScore
	if score <= 0 {
		score = 1
	}
	return sim.FromNs(baseSec * 1e9 * scale / score)
}
