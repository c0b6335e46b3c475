// Package engine executes model operator graphs on simulated platforms,
// reproducing the PyTorch execution modes the paper compares (§II-C,
// Fig. 2): eager kernel-to-kernel offload, domain-specific fusion
// (FlashAttention-2), and whole-graph synthesis (torch.compile with CUDA
// Graphs), including the compile-time cost model of Table I.
//
// One launch model times every mode. A single host dispatch thread
// feeds one FIFO device stream, and the executor moves the host clock
// and the stream frontier by five primitives: operator dispatch, kernel
// launch, CUDA-graph launch, host↔device copy and device synchronize.
//
// Timing semantics (paper Fig. 4): a cudaLaunchKernel call occupies the
// host thread for the platform's launch-CPU time; the kernel may begin
// executing LaunchOverheadNs after the call started — unless earlier
// kernels still occupy the stream, in which case it queues. SKIP later
// measures t_l = tsb(kernel) − tsb(launch) from the trace (Eq. 1), which
// equals the pure launch overhead on an idle stream and grows with
// queuing delay on a saturated one. A copy (cudaMemcpyAsync over the
// platform interconnect) is launched the same way, and is elided
// entirely on unified physical memory. A synchronize blocks the host
// until the stream drains. A CUDA-graph replay (torch.compile's
// reduce-overhead mechanism) pays one launch call and then runs its
// kernels back to back: device-side dispatch between graph nodes is
// already in each kernel's NullKernelNs floor, so the whole saving is
// on the host side.
//
// Every mode lowers its graph to one of three bodies: the eager
// operator walk, a flat dispatch list under one operator span, or one
// CUDA-graph replay, run inside one copy and synchronize bracket. Each
// primitive's effect on the clocks is a max-plus span (fold.go). The
// executor applies the spans one primitive at a time, accumulating
// SKIP's metrics and, when asked, recording the trace; the serving step
// oracle composes them to price a body without running it.
package engine

import (
	"fmt"
	"math"
	"strconv"

	"github.com/skipsim/skip/internal/core"
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
	// Trace is the profiler trace of the steady-state iteration; nil
	// from Time. It is excluded from JSON reports — Chrome-trace files
	// have their own serialization (Trace.SaveFile, the CLI's -o flag).
	Trace *trace.Trace `json:"-"`
	// TTFT is the prefill latency: the run's span, from its input copy
	// to its final synchronize. Metrics.IL (Eq. 4) is narrower: first
	// operator start to last kernel end.
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
	// Metrics are SKIP's metrics of the run (§III-A), accumulated by the
	// executor as it runs, traced or not: what core.Analyze derives
	// from Trace. Like Trace, they are excluded from JSON reports.
	Metrics core.Metrics `json:"-"`
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
func Run(req Request) (*Result, error) { return run(req, true) }

// Time is Run without the trace: the same Result in every field except
// Trace, which is nil. Callers that read only timings or SKIP's metrics
// use it and skip recording and ordering the trace.
func Time(req Request) (*Result, error) { return run(req, false) }

// run simulates one prefill iteration of the request, recording its
// trace when traced.
func run(req Request, traced bool) (*Result, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	var b *trace.Builder
	if traced {
		b = trace.NewBuilder()
		b.Meta("platform", req.Platform.Name)
		b.Meta("model", req.Model.Name)
		b.Meta("mode", req.Mode.String())
		b.Meta("batch", strconv.FormatInt(req.Batch, 10))
		b.Meta("seq", strconv.FormatInt(req.Seq, 10))
	}
	graph, err := models.BuildPrefill(req.Model, req.Batch, req.Seq, req.Mode.attention())
	if err != nil {
		return nil, err
	}
	l, err := lower(req.Mode, graph)
	if err != nil {
		return nil, err
	}
	res := newExecutor(req.Platform, b).result(req, &l)
	res.CompileTime = compileTime(req)
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

// bodyKind names the three bodies a run can execute.
type bodyKind uint8

const (
	// walkBody is the eager operator walk: each operator's host
	// dispatch, its children in order, then its kernels.
	walkBody bodyKind = iota
	// listBody dispatches a flat kernel list under one operator span:
	// host dispatch, then a launch, per kernel.
	listBody
	// replayBody replays a flat kernel list as one CUDA graph.
	replayBody
)

// lowering is what one run executes: the graph, whose copies bracket
// the run, and the body its mode lowers the graph to.
type lowering struct {
	g    *ops.Graph
	body bodyKind
	// plan substitutes fused chains' kernels on the walk; nil for none.
	plan *chains
	// ks is the list or replay body's kernel list.
	ks []ops.Kernel
	// op names the list body's operator span; hostNs is its host
	// dispatch cost per kernel.
	op     string
	hostNs float64
}

// lower lowers a prefill graph the way mode runs it. Eager and flash
// walk it. Compiled modes lower it to the kernel list a torch.compile
// backend would emit: mode="default" dispatches the list from compiled
// host code (no Python/ATen overhead, but a launch call per kernel);
// reduce-overhead and max-autotune capture it once into a CUDA graph
// and replay it with a single launch.
func lower(mode Mode, g *ops.Graph) (lowering, error) {
	switch mode {
	case Eager, Flash:
		return lowering{g: g}, nil
	case CompileDefault:
		return lowering{g: g, body: listBody, ks: compiledKernels(mode, g), op: "CompiledFunction", hostNs: compiledDispatchNs}, nil
	case CompileReduceOverhead, CompileMaxAutotune:
		return lowering{g: g, body: replayBody, ks: compiledKernels(mode, g)}, nil
	}
	return lowering{}, fmt.Errorf("engine: unknown mode %v", mode)
}

// compiledKernels is the compiled modes' kernel list: pointwise fusion
// always; autotuned GEMM/attention templates for max-autotune.
func compiledKernels(mode Mode, g *ops.Graph) []ops.Kernel {
	ks := ops.FuseElementwise(g.FlattenKernels(), 2)
	if mode == CompileMaxAutotune {
		for i := range ks {
			if ks[i].Class == ops.ClassGemm || ks[i].Class == ops.ClassAttention {
				ks[i].Cost = ks[i].Cost.Scale(1 / maxAutotuneGemmSpeedup)
				ks[i].Name = "autotuned_" + ks[i].Name
			}
		}
	}
	return ks
}

// events returns how many trace events running l on p records: on the
// walk an operator span per node visit and a launch plus a kernel per
// launched kernel; on a list one operator span and a launch plus a
// kernel per kernel; on a replay one operator span, the graph launch,
// and a node launch plus a kernel per kernel. Every run ends in a
// synchronize; platforms without unified virtual memory add the input
// and output copies (a call and a copy each) and the output
// synchronize. The count is exact unless the platform elides a copy.
func (l *lowering) events(p *hw.Platform) int {
	n := 1
	if !p.UnifiedVirtualMemory {
		n += 5
	}
	switch l.body {
	case walkBody:
		launched := l.g.KernelCount()
		if l.plan != nil {
			launched = l.plan.launched()
		}
		return n + l.g.NodeCount() + 2*launched
	case listBody:
		return n + 1 + 2*len(l.ks)
	default:
		return n + 2 + 2*len(l.ks)
	}
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
