package core

import (
	"testing"

	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// handTrace builds a trace with exactly known metric values:
//
//	parent op  [0, 100)
//	  child op   [10, 60)
//	    launch A   [20, 25) corr 1 → kernel A [50, 150)  t_l = 30
//	launch B (top level op 2) [200, 205) corr 2 → kernel B [230, 430) t_l = 30... see below
func handTrace() *trace.Trace {
	b := trace.NewBuilder()
	b.Operator("aten::linear", 1, 0, 100)
	b.Operator("aten::addmm", 1, 10, 50)
	b.Launch("cudaLaunchKernel", 1, 20, 5, 1)
	b.Kernel("gemm_a", 7, 50, 100, 1, 1e6, 2e3)

	b.Operator("aten::add", 1, 200, 40)
	b.Launch("cudaLaunchKernel", 1, 210, 5, 2)
	b.Kernel("ew_b", 7, 260, 200, 2, 5e5, 1e3)
	b.Runtime("cudaDeviceSynchronize", 1, 240, 220)
	return b.Trace()
}

func TestBuildGraphStructure(t *testing.T) {
	g, err := BuildGraph(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	if g.ParentCount() != 2 {
		t.Fatalf("parents = %d, want 2", g.ParentCount())
	}
	if g.OpCount() != 3 {
		t.Errorf("ops = %d, want 3", g.OpCount())
	}
	// First parent: linear → addmm → launch.
	lin := g.Parents[0]
	if lin.Event.Name != "aten::linear" || len(lin.Children) != 1 {
		t.Fatalf("parent 0 = %+v", lin.Event)
	}
	addmm := lin.Children[0]
	if addmm.Event.Name != "aten::addmm" || len(addmm.Launches) != 1 {
		t.Fatalf("child = %+v with %d launches", addmm.Event, len(addmm.Launches))
	}
	if addmm.Launches[0].Kernel == nil || addmm.Launches[0].Kernel.Name != "gemm_a" {
		t.Error("launch→kernel correlation broken")
	}
	if addmm.Launches[0].Op != addmm {
		t.Error("launch should attribute to innermost operator")
	}
	// Second parent holds launch B.
	if len(g.Parents[1].Launches) != 1 {
		t.Error("second parent should own one launch")
	}
	if len(g.Launches) != 2 || len(g.KernelLaunches()) != 2 {
		t.Errorf("launches=%d kernel launches=%d", len(g.Launches), len(g.KernelLaunches()))
	}
}

func TestLaunchDelayEquation(t *testing.T) {
	g, _ := BuildGraph(handTrace())
	// Eq. 1: t_l = tsb(k) − tsb(l).
	wants := []sim.Time{30, 50}
	for i, lr := range g.KernelLaunches() {
		if got := lr.LaunchDelay(); got != wants[i] {
			t.Errorf("launch %d delay = %d, want %d", i, got, wants[i])
		}
	}
}

func TestMetricsEquations(t *testing.T) {
	m, _, err := Analyze(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	// TKLQT (Eq. 2) = 30 + 50 = 80.
	if m.TKLQT != 80 {
		t.Errorf("TKLQT = %d, want 80", m.TKLQT)
	}
	// AKD (Eq. 3) = (100 + 200)/2 = 150.
	if m.AKD != 150 {
		t.Errorf("AKD = %d, want 150", m.AKD)
	}
	// IL (Eq. 4) = last kernel end (460) − first parent start (0).
	if m.IL != 460 {
		t.Errorf("IL = %d, want 460", m.IL)
	}
	// GPU idle (Eq. 5) = IL − Σ t_k = 460 − 300 = 160.
	if m.GPUIdle != 160 {
		t.Errorf("GPUIdle = %d, want 160", m.GPUIdle)
	}
	// Host busy: union of [0,100) ∪ [10,60) ∪ [20,25) ∪ [200,240) ∪
	// [210,215) = 100 + 40 = 140 (sync excluded).
	if m.CPUBusy != 140 {
		t.Errorf("CPUBusy = %d, want 140", m.CPUBusy)
	}
	if m.CPUIdle != 460-140 {
		t.Errorf("CPUIdle = %d, want %d", m.CPUIdle, 460-140)
	}
	if m.KernelCount != 2 || m.ParentOps != 2 || m.TotalOps != 3 {
		t.Errorf("counts: %+v", m)
	}
	if m.MinDelay != 30 || m.MaxDelay != 50 || m.MeanDelay != 40 {
		t.Errorf("delays: min=%d mean=%d max=%d", m.MinDelay, m.MeanDelay, m.MaxDelay)
	}
	// QueueShare = 1 − 2·30/80 = 0.25.
	if m.QueueShare < 0.249 || m.QueueShare > 0.251 {
		t.Errorf("QueueShare = %f, want 0.25", m.QueueShare)
	}
}

func TestAnalyzeRejectsKernelFreeTrace(t *testing.T) {
	b := trace.NewBuilder()
	b.Operator("aten::add", 1, 0, 10)
	if _, _, err := Analyze(b.Trace()); err == nil {
		t.Error("kernel-free trace should be rejected")
	}
}

func TestBuildGraphRejectsInvalidTrace(t *testing.T) {
	tr := trace.New()
	tr.Append(trace.Event{Name: "k", Cat: trace.CatKernel, Ts: 0, Dur: 1, Correlation: 99})
	if _, err := BuildGraph(tr); err == nil {
		t.Error("invalid trace should be rejected")
	}
}

func TestGraphHandlesOperatorFreeTrace(t *testing.T) {
	// Compiled-mode traces may have launches outside operator spans.
	b := trace.NewBuilder()
	b.Launch("cudaGraphLaunch", 1, 0, 5, 1)
	b.Kernel("k", 7, 10, 100, 1, 0, 0)
	m, g, err := Analyze(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if g.ParentCount() != 0 {
		t.Errorf("parents = %d, want 0", g.ParentCount())
	}
	if len(g.Launches) != 1 || g.Launches[0].Op != nil {
		t.Error("orphan launch should have nil Op")
	}
	// IL falls back to the launch start.
	if m.IL != 110 {
		t.Errorf("IL = %d, want 110", m.IL)
	}
}

func TestTopKernels(t *testing.T) {
	b := trace.NewBuilder()
	b.Operator("op", 1, 0, 1000)
	corr := uint64(1)
	// 3× fast kernel, 1× slow kernel.
	for i := 0; i < 3; i++ {
		ts := sim.Time(10 + i*100)
		b.Launch("cudaLaunchKernel", 1, ts, 5, corr)
		b.Kernel("fast", 7, ts+20, 10, corr, 100, 200)
		corr++
	}
	b.Launch("cudaLaunchKernel", 1, 500, 5, corr)
	b.Kernel("slow", 7, 530, 400, corr, 1e6, 1e4)

	g, err := BuildGraph(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	byCount := g.TopKernels(1, ByCount)
	if len(byCount) != 1 || byCount[0].Name != "fast" || byCount[0].Count != 3 {
		t.Errorf("ByCount top = %+v", byCount)
	}
	byTime := g.TopKernels(1, ByTotalTime)
	if byTime[0].Name != "slow" || byTime[0].TotalTime != 400 {
		t.Errorf("ByTotalTime top = %+v", byTime)
	}
	byDelay := g.TopKernels(0, ByTotalDelay)
	if len(byDelay) != 2 {
		t.Errorf("k≤0 should return all: %d", len(byDelay))
	}
	// fast: 3 × 20 = 60 total delay; slow: 30.
	if byDelay[0].Name != "fast" || byDelay[0].TotalDelay != 60 {
		t.Errorf("ByTotalDelay top = %+v", byDelay[0])
	}
	// Share of time sums to 1.
	var share float64
	for _, st := range byDelay {
		share += st.ShareOfTime
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("shares sum to %f", share)
	}
}

func TestClassifyRun(t *testing.T) {
	// GPU starved → CPU-bound.
	if got := ClassifyRun(&Metrics{IL: 100, GPUIdle: 80, CPUIdle: 5}); got != CPUBound {
		t.Errorf("GPU-starved run = %v, want CPU-bound", got)
	}
	// CPU waiting on a saturated device → GPU-bound.
	if got := ClassifyRun(&Metrics{IL: 100, GPUIdle: 2, CPUIdle: 70}); got != GPUBound {
		t.Errorf("CPU-waiting run = %v, want GPU-bound", got)
	}
	// Both busy → balanced sweet spot.
	if got := ClassifyRun(&Metrics{IL: 100, GPUIdle: 10, CPUIdle: 15}); got != Balanced {
		t.Errorf("both-busy run = %v, want balanced", got)
	}
	// Degenerate.
	if got := ClassifyRun(&Metrics{}); got != Balanced {
		t.Errorf("zero-IL run = %v, want balanced", got)
	}
	// When both idle heavily, the larger idle wins.
	if got := ClassifyRun(&Metrics{IL: 100, GPUIdle: 60, CPUIdle: 40}); got != CPUBound {
		t.Errorf("both-idle run = %v, want CPU-bound (GPU idles more)", got)
	}
	if CPUBound.String() != "CPU-bound" || GPUBound.String() != "GPU-bound" || Balanced.String() != "balanced" {
		t.Error("Boundedness strings")
	}
}

func TestTransitionBatch(t *testing.T) {
	// A flat launch-overhead plateau followed by the queue explosion: at
	// BS=16 TKLQT grows 25x while batch only doubles → knee.
	series := []SeriesPoint{
		{Batch: 1, TKLQT: 1000},
		{Batch: 2, TKLQT: 1020},
		{Batch: 4, TKLQT: 990},
		{Batch: 8, TKLQT: 1400},
		{Batch: 16, TKLQT: 35000},
		{Batch: 32, TKLQT: 300000},
	}
	got, err := TransitionBatch(series)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Errorf("transition = %d, want 16", got)
	}
	// Mild (sub-4x-per-doubling) growth must not trigger.
	mild := []SeriesPoint{
		{Batch: 1, TKLQT: 1000},
		{Batch: 2, TKLQT: 3000},
		{Batch: 4, TKLQT: 9000},
	}
	got, err = TransitionBatch(mild)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("mild growth transition = %d, want 0", got)
	}
}

func TestTransitionBatchFlatSeries(t *testing.T) {
	series := []SeriesPoint{
		{Batch: 1, TKLQT: 1000},
		{Batch: 2, TKLQT: 1010},
		{Batch: 4, TKLQT: 1005},
	}
	got, err := TransitionBatch(series)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("flat series transition = %d, want 0 (never)", got)
	}
}

func TestTransitionBatchErrors(t *testing.T) {
	if _, err := TransitionBatch([]SeriesPoint{{Batch: 1, TKLQT: 1}}); err == nil {
		t.Error("single point should fail")
	}
	bad := []SeriesPoint{{Batch: 4, TKLQT: 1}, {Batch: 2, TKLQT: 1}}
	if _, err := TransitionBatch(bad); err == nil {
		t.Error("unsorted series should fail")
	}
	zero := []SeriesPoint{{Batch: 1, TKLQT: 0}, {Batch: 2, TKLQT: 0}}
	if _, err := TransitionBatch(zero); err == nil {
		t.Error("zero TKLQT should fail")
	}
}

func TestCrossover(t *testing.T) {
	gh := []SeriesPoint{
		{Batch: 1, TTFT: 280}, {Batch: 8, TTFT: 290}, {Batch: 32, TTFT: 300}, {Batch: 64, TTFT: 400},
	}
	intel := []SeriesPoint{
		{Batch: 1, TTFT: 100}, {Batch: 8, TTFT: 200}, {Batch: 32, TTFT: 500}, {Batch: 64, TTFT: 900},
	}
	cp, err := Crossover(gh, intel)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 32 {
		t.Errorf("crossover = %d, want 32", cp)
	}
	// Never crossing.
	cp, err = Crossover(intel[:2], intel[:2])
	if err != nil || cp != 0 {
		t.Errorf("self-crossover = %d/%v, want 0", cp, err)
	}
	if _, err := Crossover(gh[:2], intel[:3]); err == nil {
		t.Error("length mismatch should fail")
	}
	misaligned := []SeriesPoint{{Batch: 2, TTFT: 1}, {Batch: 8, TTFT: 1}}
	if _, err := Crossover(misaligned, intel[:2]); err == nil {
		t.Error("batch misalignment should fail")
	}
}

func TestBalancedRegion(t *testing.T) {
	mk := func(il, gpuIdle, cpuIdle sim.Time) *Metrics {
		return &Metrics{IL: il, GPUIdle: gpuIdle, CPUIdle: cpuIdle}
	}
	series := []SeriesPoint{
		{Batch: 1, Metrics: mk(100, 80, 1)},  // GPU starved
		{Batch: 4, Metrics: mk(100, 20, 10)}, // balanced
		{Batch: 8, Metrics: mk(100, 10, 25)}, // balanced
		{Batch: 32, Metrics: mk(100, 1, 80)}, // CPU starved
	}
	lo, hi, ok := BalancedRegion(series, 0.3)
	if !ok || lo != 4 || hi != 8 {
		t.Errorf("balanced region = [%d,%d] ok=%v, want [4,8]", lo, hi, ok)
	}
	_, _, ok = BalancedRegion(series, 0.001)
	if ok {
		t.Error("impossible idle bound should find nothing")
	}
	_, _, ok = BalancedRegion([]SeriesPoint{{Batch: 1}}, 0.3)
	if ok {
		t.Error("missing metrics should find nothing")
	}
}

func TestMultiThreadTraceNesting(t *testing.T) {
	// Operators on different threads must not nest across threads.
	b := trace.NewBuilder()
	b.Operator("op_t1", 1, 0, 100)
	b.Operator("op_t2", 2, 50, 100) // starts inside op_t1's span but on tid 2
	b.Launch("cudaLaunchKernel", 2, 60, 5, 1)
	b.Kernel("k", 7, 80, 10, 1, 0, 0)
	g, err := BuildGraph(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if g.ParentCount() != 2 {
		t.Fatalf("parents = %d, want 2 (no cross-thread nesting)", g.ParentCount())
	}
	// The launch belongs to the tid-2 operator.
	var t2 *OpNode
	for _, p := range g.Parents {
		if p.Event.Name == "op_t2" {
			t2 = p
		}
	}
	if t2 == nil || len(t2.Launches) != 1 {
		t.Error("launch should attribute to the same-thread operator")
	}
}
