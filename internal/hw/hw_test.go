package hw

import (
	"testing"
	"testing/quick"

	"github.com/skipsim/skip/internal/sim"
)

func TestCouplingString(t *testing.T) {
	cases := map[Coupling]string{LooselyCoupled: "LC", CloselyCoupled: "CC", TightlyCoupled: "TC"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if got := Coupling(9).String(); got != "Coupling(9)" {
		t.Errorf("unknown coupling = %q", got)
	}
}

func TestCatalogValidates(t *testing.T) {
	for _, p := range []*Platform{AMDA100(), IntelH100(), GH200(), MI300A()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestTableVAnchors(t *testing.T) {
	// The catalog must carry the paper's Table V values verbatim.
	cases := []struct {
		p              *Platform
		launch, nullNs float64
	}{
		{AMDA100(), 2260.5, 1440.0},
		{IntelH100(), 2374.6, 1235.2},
		{GH200(), 2771.6, 1171.2},
	}
	for _, c := range cases {
		if c.p.LaunchOverheadNs != c.launch {
			t.Errorf("%s launch overhead = %v, want %v", c.p.Name, c.p.LaunchOverheadNs, c.launch)
		}
		if c.p.GPU.NullKernelNs != c.nullNs {
			t.Errorf("%s null duration = %v, want %v", c.p.Name, c.p.GPU.NullKernelNs, c.nullNs)
		}
	}
}

func TestTableVOrderings(t *testing.T) {
	amd, intel, gh := AMDA100(), IntelH100(), GH200()
	// Launch overhead: AMD < Intel < GH200 (paper §V-A).
	if !(amd.LaunchOverheadNs < intel.LaunchOverheadNs && intel.LaunchOverheadNs < gh.LaunchOverheadNs) {
		t.Error("launch overhead ordering violated")
	}
	// Null duration: GH200 < H100 < A100 ("lowest nullKernel execution
	// durations" on GH200, "highest kernel execution durations" on AMD).
	if !(gh.GPU.NullKernelNs < intel.GPU.NullKernelNs && intel.GPU.NullKernelNs < amd.GPU.NullKernelNs) {
		t.Error("null duration ordering violated")
	}
}

func TestPaperArchitecturalClaims(t *testing.T) {
	intel, gh := IntelH100(), GH200()
	// GH200 carries the SXM-class module: moderately faster compute
	// (≤1.35x, see catalog comment) — the HBM3 bandwidth is the dominant
	// advantage at 2x.
	if ratio := gh.GPU.PeakFP16TFLOPS / intel.GPU.PeakFP16TFLOPS; ratio < 1.0 || ratio > 1.35 {
		t.Errorf("GH200/H100 compute ratio = %.2f, want within [1, 1.35]", ratio)
	}
	if gh.GPU.HBMGBps <= 1.5*intel.GPU.HBMGBps {
		t.Error("GH200 HBM3 bandwidth should be ~2x H100 PCIe")
	}
	if gh.CPU.SingleThreadScore >= intel.CPU.SingleThreadScore {
		t.Error("Grace single-thread score must trail Intel (paper §V-D)")
	}
	if !gh.UnifiedVirtualMemory || gh.UnifiedPhysicalMemory {
		t.Error("GH200 is virtually unified only")
	}
	if !MI300A().UnifiedPhysicalMemory {
		t.Error("MI300A is physically unified")
	}
}

func TestKernelDurationFloor(t *testing.T) {
	g := IntelH100().GPU
	// Empty kernel costs exactly the null duration.
	if got := g.KernelDuration(KernelCost{}); got != sim.FromNs(g.NullKernelNs) {
		t.Errorf("null kernel = %v, want %v", got, sim.FromNs(g.NullKernelNs))
	}
}

func TestKernelDurationRoofline(t *testing.T) {
	g := IntelH100().GPU
	// A very large compute-bound kernel approaches the achievable
	// (MFU-capped) throughput.
	flops := 1e13 // 10 TFLOP
	d := g.KernelDuration(KernelCost{FLOPs: flops})
	ideal := flops / (g.PeakFP16TFLOPS * 1e3 * g.ComputeEff) // ns
	if ratio := float64(d) / ideal; ratio < 1.0 || ratio > 1.05 {
		t.Errorf("large compute kernel %.3gx ideal, want within 5%%", ratio)
	}
	// A very large memory-bound kernel approaches achievable bandwidth.
	bytes := 1e11 // 100 GB
	d = g.KernelDuration(KernelCost{BytesRead: bytes})
	ideal = bytes / (g.HBMGBps * g.MemoryEff)
	if ratio := float64(d) / ideal; ratio < 1.0 || ratio > 1.05 {
		t.Errorf("large memory kernel %.3gx ideal, want within 5%%", ratio)
	}
	// Unset efficiency fields behave as an ideal machine (no cap).
	bare := GPUSpec{PeakFP16TFLOPS: 100, HBMGBps: 1000, ComputeSatFLOPs: 1, MemorySatBytes: 1}
	d = bare.KernelDuration(KernelCost{FLOPs: 1e12})
	if ratio := float64(d) / (1e12 / 1e5); ratio < 1.0 || ratio > 1.05 {
		t.Errorf("bare spec kernel %.3gx ideal", ratio)
	}
}

func TestKernelDurationBandwidthAdvantage(t *testing.T) {
	// Same memory-bound kernel: GH200 HBM3 must beat H100 PCIe. The
	// achievable ratio is (4000·0.60)/(2000·0.80) = 1.5 — plate-rated
	// 2x derated by measured streaming efficiency (see catalog notes).
	cost := KernelCost{BytesRead: 1e9, BytesWrite: 1e9}
	dIntel := IntelH100().GPU.KernelDuration(cost)
	dGH := GH200().GPU.KernelDuration(cost)
	ratio := float64(dIntel) / float64(dGH)
	if ratio < 1.35 || ratio > 1.65 {
		t.Errorf("HBM advantage ratio = %.2f, want ~1.5", ratio)
	}
}

func TestKernelDurationMonotone(t *testing.T) {
	g := GH200().GPU
	f := func(a, b uint32) bool {
		fa, fb := float64(a), float64(b)
		if fa > fb {
			fa, fb = fb, fa
		}
		return g.KernelDuration(KernelCost{FLOPs: fa}) <= g.KernelDuration(KernelCost{FLOPs: fb}) &&
			g.KernelDuration(KernelCost{BytesRead: fa}) <= g.KernelDuration(KernelCost{BytesRead: fb})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelCostArithmetic(t *testing.T) {
	a := KernelCost{FLOPs: 10, BytesRead: 4, BytesWrite: 2}
	b := KernelCost{FLOPs: 5, BytesRead: 1, BytesWrite: 1}
	sum := a.Add(b)
	if sum.FLOPs != 15 || sum.BytesRead != 5 || sum.BytesWrite != 3 {
		t.Errorf("Add = %+v", sum)
	}
	if a.Bytes() != 6 {
		t.Errorf("Bytes = %v", a.Bytes())
	}
	s := a.Scale(0.5)
	if s.FLOPs != 5 || s.BytesRead != 2 || s.BytesWrite != 1 {
		t.Errorf("Scale = %+v", s)
	}
}

// TestLaunchSplit: on every catalog platform the launch call's share of
// the launch overhead holds the host for a positive time no longer than
// the whole overhead, since the launch model starts the kernel
// LaunchOverheadNs after the call starts.
func TestLaunchSplit(t *testing.T) {
	for _, name := range PlatformNames() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if cpu := p.LaunchCPUTime(); cpu <= 0 || cpu > sim.FromNs(p.LaunchOverheadNs) {
			t.Errorf("%s: launch call holds the host %v, want in (0, %v]", name, cpu, sim.FromNs(p.LaunchOverheadNs))
		}
	}
}

func TestCPUTimeScaling(t *testing.T) {
	intel, gh := IntelH100(), GH200()
	base := 10000.0
	ti, tg := intel.CPUTime(base), gh.CPUTime(base)
	ratio := float64(tg) / float64(ti)
	want := intel.CPU.SingleThreadScore / gh.CPU.SingleThreadScore
	if ratio < want*0.99 || ratio > want*1.01 {
		t.Errorf("CPU scaling ratio = %.3f, want %.3f", ratio, want)
	}
	// Degenerate score falls back to base.
	bad := &Platform{CPU: CPUSpec{SingleThreadScore: 0}}
	if got := bad.CPUTime(base); got != sim.FromNs(base) {
		t.Errorf("zero-score CPUTime = %v", got)
	}
}

func TestTransferTime(t *testing.T) {
	intel, gh, mi := IntelH100(), GH200(), MI300A()
	b := 1e9 // 1 GB
	ti, tg := intel.TransferTime(b), gh.TransferTime(b)
	if tg >= ti {
		t.Errorf("NVLink-C2C transfer (%v) should beat PCIe (%v)", tg, ti)
	}
	if got := mi.TransferTime(b); got != 0 {
		t.Errorf("TC transfer = %v, want 0 (unified physical memory)", got)
	}
	if got := intel.TransferTime(0); got != 0 {
		t.Errorf("zero-byte transfer = %v", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range PlatformNames() {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ByName("TPUv4"); err == nil {
		t.Error("ByName with unknown platform should fail")
	}
}

func TestEvaluationPlatformsOrder(t *testing.T) {
	ps := EvaluationPlatforms()
	if len(ps) != 3 {
		t.Fatalf("want 3 evaluation platforms, got %d", len(ps))
	}
	want := []string{AMDA100Name, IntelH100Name, GH200Name}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("platform[%d] = %s, want %s", i, p.Name, want[i])
		}
	}
}

func TestValidateCatchesBadPlatforms(t *testing.T) {
	good := IntelH100()
	bad := *good
	bad.CPU.SingleThreadScore = 0
	if bad.Validate() == nil {
		t.Error("zero CPU score must fail validation")
	}
	bad = *good
	bad.LaunchCPUFraction = 1.5
	if bad.Validate() == nil {
		t.Error("LaunchCPUFraction > 1 must fail validation")
	}
	bad = *good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name must fail validation")
	}
	bad = *good
	bad.GPU.PeakFP16TFLOPS = 0
	if bad.Validate() == nil {
		t.Error("zero TFLOPS must fail validation")
	}
}

func TestPlatformString(t *testing.T) {
	s := GH200().String()
	if s == "" {
		t.Error("empty String()")
	}
}
