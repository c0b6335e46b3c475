package engine

import (
	"slices"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/trace"
)

func mustRun(t *testing.T, req Request) *Result {
	t.Helper()
	res, err := Run(req)
	if err != nil {
		t.Fatalf("Run(%v/%v/%v): %v", req.Platform.Name, req.Model.Name, req.Mode, err)
	}
	return res
}

func bertOn(p *hw.Platform, bs int64, mode Mode) Request {
	return Request{Platform: p, Model: models.BertBaseUncased(), Batch: bs, Seq: 512, Mode: mode}
}

func TestEagerRunProducesValidTrace(t *testing.T) {
	res := mustRun(t, bertOn(hw.IntelH100(), 1, Eager))
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if res.TTFT <= 0 {
		t.Error("TTFT must be positive")
	}
	if res.KernelCount != res.HostLaunches {
		t.Errorf("eager: kernels (%d) should equal host launches (%d)", res.KernelCount, res.HostLaunches)
	}
	if res.GPUIdle < 0 || res.CPUIdle < 0 {
		t.Errorf("idle times must be non-negative: gpu=%v cpu=%v", res.GPUIdle, res.CPUIdle)
	}
	if res.GPUBusy+res.GPUIdle != res.TTFT {
		t.Error("GPU busy + idle must equal TTFT")
	}
}

func TestEagerKernelCountMatchesGraph(t *testing.T) {
	g, _ := models.BuildPrefill(models.BertBaseUncased(), 1, 512, models.AttnEager)
	res := mustRun(t, bertOn(hw.GH200(), 1, Eager))
	// GH200 has unified virtual memory: no memcpy kernels, so trace
	// kernels equal graph kernels exactly.
	if res.KernelCount != g.KernelCount() {
		t.Errorf("kernels = %d, graph has %d", res.KernelCount, g.KernelCount())
	}
}

func TestMemcpyOnlyOnLooselyCoupled(t *testing.T) {
	intel := mustRun(t, bertOn(hw.IntelH100(), 1, Eager))
	gh := mustRun(t, bertOn(hw.GH200(), 1, Eager))
	count := func(tr *trace.Trace) int {
		n := 0
		for _, e := range tr.Events {
			if e.Cat == trace.CatMemcpy {
				n++
			}
		}
		return n
	}
	if count(intel.Trace) == 0 {
		t.Error("LC platform should perform explicit H2D/D2H copies")
	}
	if count(gh.Trace) != 0 {
		t.Error("CC platform with unified virtual memory should not copy")
	}
}

func TestOperatorEventsNestChildren(t *testing.T) {
	res := mustRun(t, bertOn(hw.IntelH100(), 1, Eager))
	operators := res.Trace.Filter(trace.CatOperator)
	var linear, addmm *trace.Event
	for i := range operators {
		switch operators[i].Name {
		case "aten::linear":
			if linear == nil {
				linear = &operators[i]
			}
		case "aten::addmm":
			if addmm == nil && linear != nil {
				addmm = &operators[i]
			}
		}
	}
	if linear == nil || addmm == nil {
		t.Fatal("missing aten::linear / aten::addmm spans")
	}
	if !linear.Contains(addmm) {
		t.Errorf("parent span [%d,%d) must contain child start %d",
			linear.Ts, linear.End(), addmm.Ts)
	}
}

func TestFlashReducesKernelsAndLatency(t *testing.T) {
	eager := mustRun(t, bertOn(hw.IntelH100(), 1, Eager))
	flash := mustRun(t, bertOn(hw.IntelH100(), 1, Flash))
	if flash.KernelCount >= eager.KernelCount {
		t.Errorf("flash kernels (%d) must be fewer than eager (%d)", flash.KernelCount, eager.KernelCount)
	}
	if flash.TTFT >= eager.TTFT {
		t.Errorf("flash TTFT (%v) should beat eager (%v)", flash.TTFT, eager.TTFT)
	}
}

func TestGraphReplayModesLaunchOnce(t *testing.T) {
	for _, mode := range []Mode{CompileReduceOverhead, CompileMaxAutotune} {
		res := mustRun(t, bertOn(hw.GH200(), 1, mode))
		// Unified memory: the only host-visible launch is the graph.
		if res.HostLaunches != 1 {
			t.Errorf("%v: host launches = %d, want 1", mode, res.HostLaunches)
		}
		if res.KernelCount <= 1 {
			t.Errorf("%v: kernel count = %d, want many", mode, res.KernelCount)
		}
	}
}

func TestCompileModesBeatEagerInCPUBoundRegion(t *testing.T) {
	// GH200 at BS=1 is deep in the CPU-bound region: every compiled mode
	// must cut TTFT, ordered eager > default > reduce-overhead.
	p := hw.GH200()
	eager := mustRun(t, bertOn(p, 1, Eager))
	def := mustRun(t, bertOn(p, 1, CompileDefault))
	ro := mustRun(t, bertOn(p, 1, CompileReduceOverhead))
	ma := mustRun(t, bertOn(p, 1, CompileMaxAutotune))
	if !(def.TTFT < eager.TTFT) {
		t.Errorf("default (%v) must beat eager (%v)", def.TTFT, eager.TTFT)
	}
	if !(ro.TTFT <= def.TTFT) {
		t.Errorf("reduce-overhead (%v) must not trail default (%v)", ro.TTFT, def.TTFT)
	}
	if !(ma.TTFT <= ro.TTFT) {
		t.Errorf("max-autotune (%v) must not trail reduce-overhead (%v)", ma.TTFT, ro.TTFT)
	}
}

func TestCompileTimeOrdering(t *testing.T) {
	// Table I: eager ≪ default < reduce-overhead ≪ max-autotune.
	p := hw.IntelH100()
	var prev Result
	for i, mode := range []Mode{Eager, CompileDefault, CompileReduceOverhead, CompileMaxAutotune} {
		res := mustRun(t, Request{Platform: p, Model: models.Gemma2B(), Batch: 1, Seq: 1024, Mode: mode})
		if i > 0 && res.CompileTime <= prev.CompileTime {
			t.Errorf("%v compile time (%v) should exceed previous (%v)", mode, res.CompileTime, prev.CompileTime)
		}
		prev = *res
	}
}

func TestCompileTimeAnchorsTableI(t *testing.T) {
	// On the Gemma-2B/Intel+H100 anchor the Table I values reproduce
	// exactly (±1%).
	p := hw.IntelH100()
	cases := map[Mode]float64{
		Eager:                 0.40644,
		CompileDefault:        6.2844,
		CompileReduceOverhead: 12.7469,
		CompileMaxAutotune:    387.3,
	}
	for mode, wantSec := range cases {
		res := mustRun(t, Request{Platform: p, Model: models.Gemma2B(), Batch: 1, Seq: 1024, Mode: mode})
		got := res.CompileTime.Seconds()
		if got < wantSec*0.99 || got > wantSec*1.01 {
			t.Errorf("%v compile time = %.4fs, want %.4fs", mode, got, wantSec)
		}
	}
}

func TestCompileTimeScalesWithModelAndCPU(t *testing.T) {
	small := mustRun(t, Request{Platform: hw.IntelH100(), Model: models.GPT2(), Batch: 1, Seq: 512, Mode: CompileMaxAutotune})
	big := mustRun(t, Request{Platform: hw.IntelH100(), Model: models.Llama27B(), Batch: 1, Seq: 512, Mode: CompileMaxAutotune})
	if big.CompileTime <= small.CompileTime {
		t.Error("larger model must compile longer")
	}
	grace := mustRun(t, Request{Platform: hw.GH200(), Model: models.GPT2(), Batch: 1, Seq: 512, Mode: CompileMaxAutotune})
	if grace.CompileTime <= small.CompileTime {
		t.Error("slower host must compile longer")
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	if _, err := Run(Request{}); err == nil {
		t.Error("empty request should fail")
	}
	if _, err := Run(Request{Platform: hw.IntelH100(), Model: models.GPT2(), Batch: 0, Seq: 512, Mode: Eager}); err == nil {
		t.Error("zero batch should fail")
	}
	bad := hw.IntelH100()
	bad.CPU.SingleThreadScore = -1
	if _, err := Run(Request{Platform: bad, Model: models.GPT2(), Batch: 1, Seq: 512, Mode: Eager}); err == nil {
		t.Error("invalid platform should fail")
	}
}

func TestModeStrings(t *testing.T) {
	if len(Modes()) != 5 {
		t.Fatal("want 5 modes")
	}
	for _, m := range Modes() {
		if strings.HasPrefix(m.String(), "mode(") {
			t.Errorf("mode %d lacks a name", int(m))
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, bertOn(hw.GH200(), 4, Eager))
	b := mustRun(t, bertOn(hw.GH200(), 4, Eager))
	if a.TTFT != b.TTFT || a.KernelCount != b.KernelCount || a.GPUBusy != b.GPUBusy {
		t.Error("simulation must be deterministic")
	}
}

func TestTraceMetaRecordsRun(t *testing.T) {
	res := mustRun(t, bertOn(hw.GH200(), 4, Flash))
	m := res.Trace.Meta
	if m["platform"] != "GH200" || m["model"] != "bert-base-uncased" ||
		m["mode"] != "flash_attention_2" || m["batch"] != "4" || m["seq"] != "512" {
		t.Errorf("meta = %v", m)
	}
}

// The paper-shape integration assertions for Figs. 10/11 live here
// because the engine is the layer that produces TTFT.

func TestPaperShapeEncoderBS1Ratios(t *testing.T) {
	// Fig. 10a at BS=1: GH200 ≈ 2.8x Intel+H100 and ≈ 1.9x AMD+A100 for
	// Bert-Base (we accept ±25%).
	intel := mustRun(t, bertOn(hw.IntelH100(), 1, Eager))
	amd := mustRun(t, bertOn(hw.AMDA100(), 1, Eager))
	gh := mustRun(t, bertOn(hw.GH200(), 1, Eager))
	rIntel := float64(gh.TTFT) / float64(intel.TTFT)
	rAMD := float64(gh.TTFT) / float64(amd.TTFT)
	if rIntel < 2.1 || rIntel > 3.5 {
		t.Errorf("GH200/Intel BS=1 ratio = %.2f, want ≈2.8", rIntel)
	}
	if rAMD < 1.4 || rAMD > 2.4 {
		t.Errorf("GH200/AMD BS=1 ratio = %.2f, want ≈1.9", rAMD)
	}
	// Intel+H100 consumes the least latency for small batches (paper).
	if !(intel.TTFT < amd.TTFT && amd.TTFT < gh.TTFT) {
		t.Errorf("BS=1 ordering: intel %v < amd %v < gh %v violated", intel.TTFT, amd.TTFT, gh.TTFT)
	}
}

func TestPaperShapeEncoderLargeBatchSpeedup(t *testing.T) {
	// Fig. 10a at BS=64: GH200 1.6x/2.4x faster than Intel/AMD.
	intel := mustRun(t, bertOn(hw.IntelH100(), 64, Eager))
	amd := mustRun(t, bertOn(hw.AMDA100(), 64, Eager))
	gh := mustRun(t, bertOn(hw.GH200(), 64, Eager))
	sIntel := float64(intel.TTFT) / float64(gh.TTFT)
	sAMD := float64(amd.TTFT) / float64(gh.TTFT)
	if sIntel < 1.3 || sIntel > 2.0 {
		t.Errorf("GH200 speedup over Intel at BS=64 = %.2f, want ≈1.6", sIntel)
	}
	if sAMD < 1.8 || sAMD > 2.9 {
		t.Errorf("GH200 speedup over AMD at BS=64 = %.2f, want ≈2.4", sAMD)
	}
}

func TestPaperShapeLlamaLargeBatchSpeedup(t *testing.T) {
	// Fig. 11a at BS=16: GH200 1.9x/2.7x faster for Llama-3.2-1B.
	req := func(p *hw.Platform) Request {
		return Request{Platform: p, Model: models.Llama32_1B(), Batch: 16, Seq: 512, Mode: Eager}
	}
	intel := mustRun(t, req(hw.IntelH100()))
	amd := mustRun(t, req(hw.AMDA100()))
	gh := mustRun(t, req(hw.GH200()))
	sIntel := float64(intel.TTFT) / float64(gh.TTFT)
	sAMD := float64(amd.TTFT) / float64(gh.TTFT)
	if sIntel < 1.4 || sIntel > 2.3 {
		t.Errorf("GH200 speedup over Intel = %.2f, want ≈1.9", sIntel)
	}
	if sAMD < 2.0 || sAMD > 3.2 {
		t.Errorf("GH200 speedup over AMD = %.2f, want ≈2.7", sAMD)
	}
}

func TestPaperShapeLlamaNoCrossover(t *testing.T) {
	// Fig. 11a: Llama-3.2-1B latencies are similar at BS=1 (no CP) and
	// GH200 leads from small batch sizes.
	reqAt := func(p *hw.Platform, bs int64) Request {
		return Request{Platform: p, Model: models.Llama32_1B(), Batch: bs, Seq: 512, Mode: Eager}
	}
	intel1 := mustRun(t, reqAt(hw.IntelH100(), 1))
	gh1 := mustRun(t, reqAt(hw.GH200(), 1))
	ratio := float64(gh1.TTFT) / float64(intel1.TTFT)
	if ratio > 1.5 {
		t.Errorf("Llama BS=1 GH200/Intel = %.2f, want near parity", ratio)
	}
	intel4 := mustRun(t, reqAt(hw.IntelH100(), 4))
	gh4 := mustRun(t, reqAt(hw.GH200(), 4))
	if gh4.TTFT >= intel4.TTFT {
		t.Errorf("GH200 must lead by BS=4: %v vs %v", gh4.TTFT, intel4.TTFT)
	}
}

func TestPaperShapeGH200GPUIdleAtLowBatch(t *testing.T) {
	// Fig. 10b: GH200 shows large GPU idle at small batch (CPU-bound),
	// shrinking as batch grows.
	gh1 := mustRun(t, bertOn(hw.GH200(), 1, Eager))
	gh64 := mustRun(t, bertOn(hw.GH200(), 64, Eager))
	idleFrac1 := float64(gh1.GPUIdle) / float64(gh1.TTFT)
	idleFrac64 := float64(gh64.GPUIdle) / float64(gh64.TTFT)
	if idleFrac1 < 0.5 {
		t.Errorf("GH200 BS=1 GPU idle fraction = %.2f, want CPU-bound (>0.5)", idleFrac1)
	}
	if idleFrac64 > 0.3 {
		t.Errorf("GH200 BS=64 GPU idle fraction = %.2f, want GPU-bound (<0.3)", idleFrac64)
	}
	// CPU idle moves the other way.
	if gh1.CPUIdle >= gh64.CPUIdle {
		t.Errorf("CPU idle should grow with batch: %v vs %v", gh1.CPUIdle, gh64.CPUIdle)
	}
}

// TestRunReservesTrace: Run reserves the trace once for every event it
// records, in every mode, on a platform with copies and one without,
// so no append regrows the event slice.
func TestRunReservesTrace(t *testing.T) {
	for _, p := range []*hw.Platform{hw.IntelH100(), hw.GH200()} {
		for _, mode := range Modes() {
			req := Request{Platform: p, Model: models.Llama32_1B(), Batch: 1, Seq: 128, Mode: mode}
			g, err := models.BuildPrefill(req.Model, req.Batch, req.Seq, mode.attention())
			if err != nil {
				t.Fatal(err)
			}
			l, err := lower(mode, g)
			if err != nil {
				t.Fatal(err)
			}
			want := l.events(p)
			events := mustRun(t, req).Trace.Events
			if len(events) != want {
				t.Errorf("%s %v: %d events, reserved %d", p.Name, mode, len(events), want)
			}
			if got, reserved := cap(events), cap(slices.Grow([]trace.Event(nil), want)); got != reserved {
				t.Errorf("%s %v: event capacity %d, want the reservation's %d", p.Name, mode, got, reserved)
			}
		}
	}
}
