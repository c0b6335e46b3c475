package engine

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

func newTestExecutor(p *hw.Platform) (*executor, *trace.Builder) {
	b := trace.NewBuilder()
	return newExecutor(p, b), b
}

// launched launches a kernel of cost c on ex and returns its [start, end).
func launched(ex *executor, c hw.KernelCost) (start, end sim.Time) {
	ex.launch(&ops.Kernel{Name: "k", Cost: c})
	d := ex.fo.duration(c)
	return ex.f - d, ex.f
}

func TestLaunchOnIdleStream(t *testing.T) {
	p := hw.IntelH100()
	ex, b := newTestExecutor(p)
	start, end := launched(ex, hw.KernelCost{})

	// Kernel starts exactly LaunchOverheadNs after the call started.
	if want := sim.FromNs(p.LaunchOverheadNs); start != want {
		t.Errorf("kernel start = %v, want %v", start, want)
	}
	// Null-cost kernel runs for the null duration.
	if want := start + sim.FromNs(p.GPU.NullKernelNs); end != want {
		t.Errorf("kernel end = %v, want %v", end, want)
	}
	// CPU advanced by only the launch-call portion.
	if got, want := ex.c, p.LaunchCPUTime(); got != want {
		t.Errorf("CPU now = %v, want %v", got, want)
	}
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if ks := tr.Kernels(); len(ks) != 1 || ks[0].Ts != start || ks[0].End() != end {
		t.Errorf("kernel events = %+v, want one at [%v,%v)", ks, start, end)
	}
	if ex.launches != 1 {
		t.Errorf("launches = %d", ex.launches)
	}
}

func TestLaunchQueuesBehindBusyStream(t *testing.T) {
	ex, _ := newTestExecutor(hw.IntelH100())
	// First kernel: big, occupies the stream for a long time.
	_, end1 := launched(ex, hw.KernelCost{BytesRead: 1e9})
	// Second kernel launched immediately after must queue until end1.
	start2, _ := launched(ex, hw.KernelCost{})
	if start2 != end1 {
		t.Errorf("queued kernel start = %v, want %v (FIFO)", start2, end1)
	}
}

func TestSynchronizeBlocksHost(t *testing.T) {
	ex, b := newTestExecutor(hw.GH200())
	_, end := launched(ex, hw.KernelCost{BytesRead: 1e8})
	ex.sync()
	if ex.c != end {
		t.Errorf("CPU now = %v, want %v", ex.c, end)
	}
	// Synchronize with everything drained is instant.
	ex.sync()
	if ex.c != end {
		t.Errorf("idle synchronize moved time to %v", ex.c)
	}
	var syncs []trace.Event
	for _, e := range b.Trace().Events {
		if e.Name == "cudaDeviceSynchronize" {
			syncs = append(syncs, e)
		}
	}
	if len(syncs) != 2 || syncs[0].End() != end || syncs[1].Dur != 0 {
		t.Errorf("synchronize events = %+v, want a wait until %v, then an instant one", syncs, end)
	}
}

func TestMemcpyUsesInterconnect(t *testing.T) {
	intel := hw.IntelH100()
	gh := hw.GH200()
	bytes := 1e8 // 100 MB

	copyDur := func(p *hw.Platform) sim.Time {
		ex, b := newTestExecutor(p)
		ex.copy("Memcpy HtoD", bytes)
		cs := b.Trace().Filter(trace.CatMemcpy)
		if len(cs) != 1 {
			t.Fatalf("%s: %d copy events, want 1", p.Name, len(cs))
		}
		return cs[0].Dur
	}
	durI, durG := copyDur(intel), copyDur(gh)
	if durG >= durI {
		t.Errorf("NVLink-C2C copy (%v) should beat PCIe (%v)", durG, durI)
	}
	ratio := float64(durI) / float64(durG)
	wantRatio := gh.IC.BandwidthGBps / intel.IC.BandwidthGBps
	if ratio < wantRatio*0.8 || ratio > wantRatio*1.2 {
		t.Errorf("copy speed ratio %.2f, want ≈%.2f", ratio, wantRatio)
	}
}

func TestMemcpyElidedOnUnifiedMemory(t *testing.T) {
	ex, b := newTestExecutor(hw.MI300A())
	ex.copy("Memcpy HtoD", 1e9)
	if ex.c != 0 || ex.f != 0 || ex.gpuBusy != 0 {
		t.Errorf("TC memcpy took time: host %v, stream %v, busy %v", ex.c, ex.f, ex.gpuBusy)
	}
	if got := len(b.Trace().Events); got != 0 {
		t.Errorf("TC memcpy emitted %d events, want 0", got)
	}
}

func TestGraphReplayLaunchesOnce(t *testing.T) {
	p := hw.IntelH100()
	ex, b := newTestExecutor(p)
	ks := make([]ops.Kernel, 5)
	for i := range ks {
		ks[i] = ops.Kernel{Name: "k", Cost: hw.KernelCost{FLOPs: 1e6}}
	}
	ex.replay(ks)
	// One host-visible launch call for the whole graph.
	if ex.launches != 1 || ex.c != p.LaunchCPUTime() {
		t.Errorf("graph replay: launches = %d, host at %v, want 1 and %v", ex.launches, ex.c, p.LaunchCPUTime())
	}
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	kev := tr.Kernels()
	if len(kev) != 5 {
		t.Fatalf("kernel events = %d, want 5", len(kev))
	}
	// The first node starts a launch overhead after the call; the rest
	// run back to back.
	if want := sim.FromNs(p.LaunchOverheadNs); kev[0].Ts != want {
		t.Errorf("first node start = %v, want %v", kev[0].Ts, want)
	}
	for i := 1; i < len(kev); i++ {
		if kev[i].Ts != kev[i-1].End() {
			t.Errorf("node %d starts at %v, want %v", i, kev[i].Ts, kev[i-1].End())
		}
	}
	if kev[4].End() != ex.f {
		t.Errorf("last node ends at %v, stream frontier %v", kev[4].End(), ex.f)
	}
}

func TestGraphReplayBeatsEagerLaunchTax(t *testing.T) {
	// The same 50-kernel sequence must finish sooner via graph replay
	// than via eager launches when kernels are tiny enough that the CPU
	// launch cadence is the bottleneck (CPU-bound regime). Null-cost
	// kernels are the purest such case.
	p := hw.GH200()
	ks := make([]ops.Kernel, 50)

	eager := newExecutor(p, nil)
	for i := range ks {
		eager.launch(&ks[i])
	}
	eager.sync()

	graph := newExecutor(p, nil)
	graph.replay(ks)
	graph.sync()

	if graph.c >= eager.c {
		t.Errorf("graph replay (%v) should beat eager (%v) for tiny kernels", graph.c, eager.c)
	}
}

func TestEmptyGraphLaunch(t *testing.T) {
	ex, b := newTestExecutor(hw.IntelH100())
	ex.replay(nil)
	if ex.c != 0 || ex.f != 0 || ex.launches != 0 {
		t.Errorf("empty graph launch did work: host %v, stream %v, launches %d", ex.c, ex.f, ex.launches)
	}
	if ev := b.Trace().Events; len(ev) != 1 || ev[0].Name != "CUDAGraphReplay" || ev[0].Dur != 0 {
		t.Errorf("empty graph launch events = %+v, want one empty CUDAGraphReplay span", ev)
	}
}

func TestMeasureNullKernelMatchesTableV(t *testing.T) {
	for _, p := range []*hw.Platform{hw.AMDA100(), hw.IntelH100(), hw.GH200()} {
		res := MeasureNullKernel(p, 100)
		// ±1ns for integer rounding of the virtual clock.
		if math.Abs(res.LaunchOverheadNs-p.LaunchOverheadNs) > 1.0 {
			t.Errorf("%s measured launch overhead %.1f, want %.1f",
				p.Name, res.LaunchOverheadNs, p.LaunchOverheadNs)
		}
		if math.Abs(res.DurationNs-p.GPU.NullKernelNs) > 1.0 {
			t.Errorf("%s measured null duration %.1f, want %.1f",
				p.Name, res.DurationNs, p.GPU.NullKernelNs)
		}
	}
}

func TestMeasureNullKernelZeroRuns(t *testing.T) {
	res := MeasureNullKernel(hw.IntelH100(), 0)
	if res.LaunchOverheadNs != 0 || res.DurationNs != 0 {
		t.Errorf("zero-run microbench = %+v", res)
	}
}

func TestGPUBusyAccounting(t *testing.T) {
	p := hw.IntelH100()
	ex, _ := newTestExecutor(p)
	cost := hw.KernelCost{BytesRead: 1e7}
	bytes := 1e6
	want := p.GPU.KernelDuration(cost) + p.GPU.KernelDuration(hw.KernelCost{}) + p.TransferTime(bytes)
	launched(ex, cost)
	launched(ex, hw.KernelCost{})
	ex.copy("Memcpy DtoH", bytes)
	if ex.gpuBusy != want {
		t.Errorf("gpuBusy = %v, want %v", ex.gpuBusy, want)
	}
	if want := 3 * p.LaunchCPUTime(); ex.cpuBusy != want {
		t.Errorf("cpuBusy = %v, want %v", ex.cpuBusy, want)
	}
	if ex.launches != 2 {
		t.Errorf("launches = %d, want 2: a copy is not a kernel launch", ex.launches)
	}
}

// Property: kernels on the stream never overlap and respect launch order.
func TestStreamFIFOProperty(t *testing.T) {
	p := hw.GH200()
	f := func(costs []uint32) bool {
		if len(costs) == 0 || len(costs) > 64 {
			return true
		}
		ex, b := newTestExecutor(p)
		for _, c := range costs {
			launched(ex, hw.KernelCost{FLOPs: float64(c)})
		}
		ks := b.Trace().Kernels()
		for i := 1; i < len(ks); i++ {
			if ks[i].Ts < ks[i-1].End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: measured launch overhead from any single idle-stream launch
// equals the platform constant (no drift from bookkeeping).
func TestLaunchOverheadProperty(t *testing.T) {
	f := func(which uint8) bool {
		ps := []*hw.Platform{hw.AMDA100(), hw.IntelH100(), hw.GH200(), hw.MI300A()}
		p := ps[int(which)%len(ps)]
		ex, b := newTestExecutor(p)
		launched(ex, hw.KernelCost{})
		tr := b.Trace()
		var launchTs, kernelTs sim.Time
		for _, e := range tr.Events {
			switch e.Cat {
			case trace.CatRuntime:
				launchTs = e.Ts
			case trace.CatKernel:
				kernelTs = e.Ts
			}
		}
		tl := float64(kernelTs - launchTs)
		return math.Abs(tl-p.LaunchOverheadNs) <= 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
