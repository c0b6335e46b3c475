// Command skip is the SKIP-Sim command-line interface: simulate LLM
// inference on CPU-GPU coupled platform models, profile the resulting
// traces with SKIP's metrics, classify PU-boundedness across batch
// sweeps, and mine kernel-fusion recommendations.
//
// Usage:
//
//	skip platforms                         list platform catalog
//	skip models                            list model catalog
//	skip run        [flags]                simulate one inference, print metrics
//	skip analyze    -trace f.json          profile an existing trace file
//	skip classify   [flags]                batch sweep + transition detection
//	skip recommend  [flags]                proximity-score fusion recommendations
//	skip generate   [flags]                prefill + autoregressive decode
//	skip sim        -spec f.json           serving, fleet and sweep experiments
//	skip microbench                        Table V nullKernel microbenchmark
//
// Run `skip <command> -h` for per-command flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	skip "github.com/skipsim/skip"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "platforms":
		err = cmdPlatforms()
	case "models":
		err = cmdModels()
	case "run":
		err = cmdRun(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "classify":
		err = cmdClassify(args)
	case "recommend":
		err = cmdRecommend(args)
	case "generate":
		err = cmdGenerate(args)
	case "sim":
		err = cmdSim(args)
	case "microbench":
		err = cmdMicrobench()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "skip: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skip:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: skip <command> [flags]

commands:
  platforms    list the platform catalog (Table IV + MI300A projection)
  models       list the model catalog (Table III + fusion-study models)
  run          simulate one inference and print SKIP metrics
  analyze      profile an existing Chrome-trace JSON file
  classify     sweep batch sizes, print TKLQT series and the transition
  recommend    mine proximity-score fusion recommendations from a run
  generate     simulate prefill + autoregressive decode (TTFT, TPOT)
  sim          run a declarative experiment spec (-spec file.json): one
               JSON document selecting engine, serve, cluster, or
               disaggregated simulation, with scenario, arrival-process,
               or trace-replay workloads (see examples/specs/); a sweep
               section runs the document once per value of one field
               (points execute in parallel) and prints the series; -json
               prints the unified report machine-consumably; an
               observability.timeline spec section adds windowed fleet
               time series (-timeline-csv exports them), and -profile /
               -progress / -cpuprofile measure the simulator itself
  microbench   nullKernel launch-overhead microbenchmark (Table V)

run and generate translate their flags into the same experiment Spec
that 'skip sim' loads from disk. Serving and fleet simulations run only
from a spec: start from examples/specs/.`)
}

func cmdPlatforms() error {
	for _, name := range skip.PlatformNames() {
		p, err := skip.PlatformByName(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-11s %s\n", name, p)
		fmt.Printf("             launch overhead %.1fns, null kernel %.1fns, HBM %.0f GB/s, FP16 %.0f TFLOPS\n",
			p.LaunchOverheadNs, p.GPU.NullKernelNs, p.GPU.HBMGBps, p.GPU.PeakFP16TFLOPS)
	}
	return nil
}

func cmdModels() error {
	for _, name := range skip.ModelNames() {
		m, err := skip.ModelByName(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %s\n", name, m)
	}
	return nil
}

// runFlags name an engine run. newRunFlags registers -batch and -o
// only for the commands that read them.
type runFlags struct {
	fs       *flag.FlagSet
	platform *string
	model    *string
	batch    *int64
	seq      *int64
	mode     *string
	out      *string
}

func newRunFlags(name string, batch, out bool) *runFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	rf := &runFlags{
		fs:       fs,
		platform: fs.String("platform", skip.GH200, "platform name (see `skip platforms`)"),
		model:    fs.String("model", "llama-3.2-1B", "model name (see `skip models`)"),
		seq:      fs.Int64("seq", 512, "input sequence length"),
		mode:     fs.String("mode", "eager", "execution mode: eager|flash|compile-default|compile-reduce-overhead|compile-max-autotune"),
	}
	if batch {
		rf.batch = fs.Int64("batch", 1, "batch size")
	}
	if out {
		rf.out = fs.String("o", "", "write the trace to this Chrome-trace JSON file")
	}
	return rf
}

func (rf *runFlags) parseMode() (skip.Mode, error) { return skip.ParseMode(*rf.mode) }

// runSpec builds the engine section of a Spec from the shared flags —
// the run/generate subcommands are flag-to-Spec adapters over the same
// declarative pipeline as `skip sim`.
func (rf *runFlags) runSpec(platformFile string, newTokens int) *skip.Spec {
	sp := &skip.Spec{
		Platform: *rf.platform,
		Model:    *rf.model,
		Mode:     *rf.mode,
		Run:      &skip.RunSpec{Batch: *rf.batch, Seq: *rf.seq, NewTokens: newTokens},
	}
	if platformFile != "" {
		sp.Platform = ""
		sp.PlatformFile = platformFile
	}
	return sp
}

func cmdRun(args []string) error {
	rf := newRunFlags("run", true, true)
	platformFile := rf.fs.String("platform-file", "", "load a custom platform definition (JSON) instead of -platform")
	if err := rf.fs.Parse(args); err != nil {
		return err
	}
	rep, err := skip.Simulate(rf.runSpec(*platformFile, 0))
	if err != nil {
		return err
	}
	printRun(rep.Run)
	if *rf.out != "" {
		if err := rep.Run.Trace.SaveFile(*rf.out); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *rf.out)
	}
	return nil
}

func printRun(res *skip.Result) {
	m, g, err := skip.Profile(res.Trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skip: profiling:", err)
		return
	}
	fmt.Printf("%s / %s  BS=%d seq=%d mode=%s\n",
		res.Request.Platform.Name, res.Request.Model.Name,
		res.Request.Batch, res.Request.Seq, res.Request.Mode)
	fmt.Printf("  TTFT           %v\n", res.TTFT)
	fmt.Printf("  compile time   %v (one-time)\n", res.CompileTime)
	fmt.Printf("  kernels        %d (host launches %d)\n", res.KernelCount, res.HostLaunches)
	fmt.Printf("  TKLQT          %v   (mean launch delay %v)\n", m.TKLQT, m.MeanDelay)
	fmt.Printf("  AKD            %v\n", m.AKD)
	fmt.Printf("  GPU busy/idle  %v / %v\n", res.GPUBusy, res.GPUIdle)
	fmt.Printf("  CPU busy/idle  %v / %v\n", res.CPUBusy, res.CPUIdle)
	fmt.Printf("  boundedness    %v (queue share %.2f)\n", skip.ClassifyRun(m), m.QueueShare)
	if attr, err := skip.Attribute(res.Trace); err == nil {
		fmt.Printf("  attribution    %s\n", attr)
	}
	fmt.Println("  top kernels by total time:")
	for _, st := range g.TopKernels(5, 1) {
		fmt.Printf("    %-40s ×%-4d total %v (%.0f%% of GPU time)\n",
			st.Name, st.Count, st.TotalTime, st.ShareOfTime*100)
	}
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	path := fs.String("trace", "", "Chrome-trace JSON file to analyze")
	topk := fs.Int("topk", 5, "top-k kernels to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("analyze: -trace is required")
	}
	tr, err := trace.LoadFile(*path)
	if err != nil {
		return err
	}
	m, g, err := skip.Profile(tr)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: %d events\n", *path, len(tr.Events))
	fmt.Printf("  IL      %v\n", m.IL)
	fmt.Printf("  TKLQT   %v (min/mean/max delay %v/%v/%v)\n", m.TKLQT, m.MinDelay, m.MeanDelay, m.MaxDelay)
	fmt.Printf("  AKD     %v over %d kernels\n", m.AKD, m.KernelCount)
	fmt.Printf("  GPU idle %v, CPU idle %v\n", m.GPUIdle, m.CPUIdle)
	fmt.Printf("  boundedness %v\n", skip.ClassifyRun(m))
	if attr, err := skip.Attribute(tr); err == nil {
		fmt.Printf("  attribution %s\n", attr)
	}
	fmt.Println("  top kernels by count:")
	for _, st := range g.TopKernels(*topk, 0) {
		fmt.Printf("    %-40s ×%-4d mean %v\n", st.Name, st.Count, st.MeanTime)
	}
	return nil
}

func cmdClassify(args []string) error {
	rf := newRunFlags("classify", false, false)
	batches := rf.fs.String("batches", "1,2,4,8,16,32,64", "comma-separated batch sizes")
	if err := rf.fs.Parse(args); err != nil {
		return err
	}
	mode, err := rf.parseMode()
	if err != nil {
		return err
	}
	sizes, err := parseBatches(*batches)
	if err != nil {
		return err
	}
	p, err := skip.PlatformByName(*rf.platform)
	if err != nil {
		return err
	}
	m, err := skip.ModelByName(*rf.model)
	if err != nil {
		return err
	}
	var series []skip.SeriesPoint
	fmt.Printf("%-8s %14s %14s %14s  %s\n", "batch", "TTFT", "TKLQT", "GPU idle", "class")
	for _, bs := range sizes {
		res, err := engine.Time(skip.Request{Platform: p, Model: m, Batch: bs, Seq: *rf.seq, Mode: mode})
		if err != nil {
			return err
		}
		met := &res.Metrics
		series = append(series, skip.SeriesPoint{Batch: bs, TKLQT: met.TKLQT, TTFT: res.TTFT, Metrics: met})
		fmt.Printf("%-8d %14v %14v %14v  %v\n", bs, res.TTFT, met.TKLQT, met.GPUIdle, skip.ClassifyRun(met))
	}
	tb, err := skip.TransitionBatch(series)
	if err != nil {
		return err
	}
	if tb == 0 {
		fmt.Println("transition: none within the sweep (CPU-bound throughout)")
	} else {
		fmt.Printf("transition: CPU-bound → GPU-bound at BS=%d ★\n", tb)
	}
	if lo, hi, ok := skip.BalancedRegion(series, 0.45); ok {
		fmt.Printf("balanced region (both PUs ≥55%% busy): BS %d–%d\n", lo, hi)
	}
	return nil
}

func cmdRecommend(args []string) error {
	rf := newRunFlags("recommend", true, false)
	threshold := rf.fs.Float64("threshold", 1.0, "minimum proximity score PS(C) for candidates")
	if err := rf.fs.Parse(args); err != nil {
		return err
	}
	mode, err := rf.parseMode()
	if err != nil {
		return err
	}
	res, err := skip.Run(*rf.platform, *rf.model, *rf.batch, *rf.seq, mode)
	if err != nil {
		return err
	}
	rep, err := skip.RecommendFusion(res.Trace, nil)
	if err != nil {
		return err
	}
	fmt.Printf("K_eager = %d kernels\n", rep.SequenceLen)
	fmt.Printf("%-8s %8s %10s %8s %8s %9s\n", "L", "unique", "instances", "PS≥T", "fused", "speedup")
	for _, row := range rep.Rows {
		fmt.Printf("%-8d %8d %10d %8d %8d %8.2fx\n",
			row.Length, row.UniqueChains, row.TotalInstances,
			len(row.Candidates(*threshold)), row.FusedChains, row.IdealSpeedup)
	}
	best, err := rep.BestSpeedup()
	if err != nil {
		return err
	}
	fmt.Printf("best: L=%d → %.2fx ideal speedup (%d kernels after fusion)\n",
		best.Length, best.IdealSpeedup, best.KernelsAfterFusion)
	return nil
}

func cmdMicrobench() error {
	fmt.Printf("%-12s %22s %18s\n", "platform", "launch overhead (ns)", "duration (ns)")
	for _, p := range skip.Platforms() {
		r := skip.MeasureNullKernel(p, 1000)
		fmt.Printf("%-12s %22.1f %18.1f\n", r.Platform, r.LaunchOverheadNs, r.DurationNs)
	}
	return nil
}

// parseBatches parses classify's -batches list: comma-separated
// positive batch sizes.
func parseBatches(s string) ([]int64, error) {
	var out []int64
	for _, field := range strings.Split(s, ",") {
		bs, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil || bs <= 0 {
			return nil, fmt.Errorf("classify: -batches: %q is not a positive batch size", field)
		}
		out = append(out, bs)
	}
	return out, nil
}

func cmdGenerate(args []string) error {
	rf := newRunFlags("generate", true, true)
	tokens := rf.fs.Int("tokens", 32, "number of decode tokens to generate")
	if err := rf.fs.Parse(args); err != nil {
		return err
	}
	if *tokens <= 0 {
		return fmt.Errorf("generate: -tokens must be positive, got %d", *tokens)
	}
	sp := rf.runSpec("", *tokens)
	rep, err := skip.Simulate(sp)
	if err != nil {
		return err
	}
	printReport(sp, rep)
	if *rf.out != "" {
		if err := rep.Generate.Trace.SaveFile(*rf.out); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *rf.out)
	}
	return nil
}
