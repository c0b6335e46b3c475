package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/spec"
)

// leapRun is one simulation's compact report JSON, its Seq-numbered
// event stream (one JSON object per line), its scheduler iterations and
// the boundaries leaps applied in bulk during it.
type leapRun struct {
	report, events []byte
	iterations     int64
	leapt          int64
	err            error
}

// runLeap simulates s with leaping on or off.
func runLeap(s *spec.Spec, leap bool) leapRun {
	defer serve.SetLeap(leap)()
	var events bytes.Buffer
	before := serve.LeaptBoundaries()
	rep, err := spec.Simulate(s, spec.WithProfile(), spec.WithObserver(func(e serve.Event) {
		b, err := json.Marshal(e)
		if err != nil {
			panic(err)
		}
		events.Write(b)
		events.WriteByte('\n')
	}))
	if err != nil {
		return leapRun{err: err}
	}
	// The profile block is wall-clock: keep its iteration count and
	// drop it from the compared report.
	run := leapRun{events: events.Bytes(), iterations: rep.Profile.Iterations}
	rep.Profile = nil
	if run.report, err = json.Marshal(rep); err != nil {
		return leapRun{err: err}
	}
	run.leapt = serve.LeaptBoundaries() - before
	return run
}

// checkLeapMatchesStep runs the spec load returns with leaping on and
// off and fails unless both give the same report and the same event
// stream, byte for byte. It returns the leaping run.
func checkLeapMatchesStep(t *testing.T, load func() *spec.Spec) leapRun {
	t.Helper()
	step := runLeap(load(), false)
	leap := runLeap(load(), true)
	if (step.err == nil) != (leap.err == nil) || (step.err != nil && step.err.Error() != leap.err.Error()) {
		t.Fatalf("errors differ: step %v, leap %v", step.err, leap.err)
	}
	if step.err != nil {
		return leap
	}
	if step.leapt != 0 {
		t.Fatalf("the step path leapt %d boundaries", step.leapt)
	}
	if !bytes.Equal(step.events, leap.events) {
		a := strings.Split(string(step.events), "\n")
		b := strings.Split(string(leap.events), "\n")
		for i := 0; i < min(len(a), len(b)); i++ {
			if a[i] != b[i] {
				t.Fatalf("event streams diverge at line %d (of %d vs %d):\nstep %s\nleap %s", i+1, len(a), len(b), a[i], b[i])
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d lines", len(a), len(b))
	}
	if !bytes.Equal(step.report, leap.report) {
		t.Fatalf("reports differ (%d vs %d bytes)", len(step.report), len(leap.report))
	}
	return leap
}

func loadSpec(t *testing.T, path string, scale int) func() *spec.Spec {
	return func() *spec.Spec {
		s, err := spec.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if scale > 1 && s.Workload != nil && s.Workload.Requests > 0 {
			s.Workload.Requests /= scale
		}
		return s
	}
}

// TestLeapMatchesStep is the leap's metamorphic test: every shipped
// example spec (the golden-backed ones among them), the chat benchmark
// workloads at 1/20 scale, a colocated grid of faults, autoscaling,
// routers, abandonment, chunked prefill and a preempting KV budget, and
// a trace of same-instant arrivals must report and stream events
// identically with leaping on and off. The chat workloads must really
// leap, so that the comparison cannot pass with leaping dead.
func TestLeapMatchesStep(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	for _, path := range specs {
		t.Run(filepath.Base(path), func(t *testing.T) {
			checkLeapMatchesStep(t, loadSpec(t, path, 1))
		})
	}
	for _, name := range []string{"chat8", "chat80", "agentic_cache", "disagg_chaos"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("..", "..", "benchmark", "workloads", name+".json")
			run := checkLeapMatchesStep(t, loadSpec(t, path, 20))
			t.Logf("%s at 1/20: %d of %d iterations leapt (%.1f%%)", name, run.leapt, run.iterations,
				100*float64(run.leapt)/float64(run.iterations))
			if strings.HasPrefix(name, "chat") && 2*run.leapt < run.iterations {
				t.Errorf("%s leapt %d of %d iterations, want at least half", name, run.leapt, run.iterations)
			}
		})
	}
	for i, c := range leapGrid {
		t.Run(fmt.Sprintf("grid%d", i), func(t *testing.T) {
			checkLeapMatchesStep(t, func() *spec.Spec { return c.spec() })
		})
	}
	t.Run("same-instant-trace", func(t *testing.T) {
		var csv strings.Builder
		csv.WriteString("arrival_ms,prompt_tokens,output_tokens,session_id\n")
		for i := 0; i < 60; i++ {
			// Groups of three requests share an arrival instant; the
			// groups' lengths repeat, so instances step in lockstep.
			fmt.Fprintf(&csv, "%d,%d,%d,0\n", 40*(i/3), 64+32*(i%4), 24+16*(i%5))
		}
		trace := filepath.Join(t.TempDir(), "trace.csv")
		if err := os.WriteFile(trace, []byte(csv.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, router := range []string{"round-robin", "least-kv"} {
			checkLeapMatchesStep(t, func() *spec.Spec {
				c := leapCase{Instances: 3, Router: router, MaxBatch: 8}
				s := c.spec()
				s.Workload = &spec.WorkloadSpec{TraceFile: trace}
				return s
			})
		}
	})
}

// leapCase is a small colocated fleet for the leap's metamorphic test
// and fuzz target.
type leapCase struct {
	Requests        int
	Rate            float64
	Prompt, Output  int64 // length-distribution maxima; the means are half
	MaxBatch        int
	KVTokens        int64 // KV budget in llama-3.2-1B tokens; 0 takes the derived budget
	Instances       int
	Model           string // default llama-3.2-1B
	Platform        string // default GH200
	Router          string
	Chunked         bool
	AbandonMs       float64
	CrashMs, SlowMs float64 // 0: no such fault
	Autoscale       bool
	Cache           bool // agentic sessions on a prefix cache
}

// leapGrid mixes kill and slow faults, autoscaling, the least-kv and
// prefix-affinity routers, abandonment, chunked prefill and a KV budget
// small enough to preempt.
var leapGrid = []leapCase{
	{Requests: 60, Rate: 30, Prompt: 256, Output: 96, MaxBatch: 8, Instances: 2, Router: "least-kv"},
	{Requests: 60, Rate: 40, Prompt: 512, Output: 128, MaxBatch: 8, KVTokens: 900, Instances: 2, Router: "least-kv"},
	{Requests: 80, Rate: 50, Prompt: 1024, Output: 64, MaxBatch: 16, Instances: 2, Router: "least-queue", Chunked: true},
	{Requests: 80, Rate: 60, Prompt: 384, Output: 128, MaxBatch: 4, Instances: 2, Router: "least-queue", AbandonMs: 150},
	{Requests: 80, Rate: 40, Prompt: 384, Output: 96, MaxBatch: 16, Instances: 2, Router: "least-kv", CrashMs: 700, SlowMs: 300},
	{Requests: 90, Rate: 60, Prompt: 256, Output: 128, MaxBatch: 8, Instances: 2, Router: "least-queue", Autoscale: true, CrashMs: 500},
	{Requests: 64, Rate: 20, Prompt: 256, Output: 64, MaxBatch: 8, Instances: 2, Router: "prefix-affinity", Cache: true},
	{Requests: 64, Rate: 30, Prompt: 512, Output: 96, MaxBatch: 8, KVTokens: 1000, Instances: 3, Router: "prefix-affinity", Cache: true, Chunked: true, SlowMs: 400, AbandonMs: 400},
	{Requests: 40, Rate: 25, Prompt: 128, Output: 200, MaxBatch: 32, Instances: 1, Router: "round-robin", SlowMs: 200},
	{Requests: 60, Rate: 30, Prompt: 128, Output: 200, MaxBatch: 32, Instances: 2, Router: "round-robin", SlowMs: 200, CrashMs: 1500},
	// Long contexts of a 7B model on the PCIe platform, where the decode
	// step's latency changes from one KV bucket to the next.
	{Requests: 40, Rate: 4, Prompt: 2048, Output: 256, MaxBatch: 16, Instances: 1, Model: "llama2-7b", Platform: "Intel+H100", Router: "least-queue"},
}

// spec builds the case's fleet spec, in the eager mode with 64-token
// latency buckets.
func (c leapCase) spec() *spec.Spec {
	if c.Requests == 0 {
		c.Requests = 40
	}
	if c.Rate == 0 {
		c.Rate = 20
	}
	if c.Prompt == 0 {
		c.Prompt, c.Output = 256, 64
	}
	if c.Model == "" {
		c.Model = "llama-3.2-1B"
	}
	if c.Platform == "" {
		c.Platform = "GH200"
	}
	w := &spec.WorkloadSpec{
		Scenario:   "chat",
		Requests:   c.Requests,
		RatePerSec: c.Rate,
		Seed:       int64(c.Requests) + 7,
		Prompt:     &spec.LengthDistSpec{Mean: float64(c.Prompt) / 2, Sigma: 0.6, Min: 8, Max: c.Prompt},
		Output:     &spec.LengthDistSpec{Mean: float64(c.Output) / 2, Sigma: 0.5, Min: 2, Max: c.Output},
	}
	if c.Cache {
		w.Scenario, w.Turns, w.ContextGrowth = "agentic", 4, 64
		w.Prompt.Max = max(c.Prompt, w.Prompt.Max+4*w.ContextGrowth)
	}
	sv := &spec.ServeSpec{Policy: "continuous", MaxBatch: c.MaxBatch, Seq: 256, LatencyBucket: 64, TTFTSLOMs: 300, AbandonAfterMs: c.AbandonMs}
	if c.Chunked {
		sv.Policy, sv.PrefillChunk = "chunked-prefill", 128
	}
	if c.KVTokens > 0 {
		// llama-3.2-1B caches 2·16 layers·512·2 bytes per token. The
		// budget holds the longest request.
		sv.KVCapacityBytes = float64(max(c.KVTokens, w.Prompt.Max+c.Output) * 32768)
	}
	f := &spec.FleetSpec{Groups: []spec.FleetGroupSpec{{Platform: c.Platform, Count: max(c.Instances, 1)}}, Router: c.Router}
	if c.Cache {
		f.KVCache = &spec.KVCacheSpec{BlockTokens: 32, DeviceBlocks: 96, HostSpillBlocks: 256}
	}
	if c.Autoscale {
		f.Autoscale = &spec.AutoscaleSpec{Platform: "GH200", Target: 3, Max: 4, IntervalMs: 100, CooldownMs: 200, SpinUpDelayMs: 300}
	}
	if c.CrashMs > 0 || c.SlowMs > 0 {
		f.Faults = &spec.FaultsSpec{}
		if c.SlowMs > 0 {
			f.Faults.Schedule = append(f.Faults.Schedule, spec.FaultSpec{AtMs: c.SlowMs, Kind: "slow-node", Instance: 0, Factor: 1.5})
		}
		if c.CrashMs > 0 {
			f.Faults.Schedule = append(f.Faults.Schedule, spec.FaultSpec{AtMs: c.CrashMs, Kind: "crash", Instance: max(c.Instances, 1) - 1})
		}
	}
	return &spec.Spec{Model: c.Model, Mode: "eager", Workload: w, Serve: sv, Fleet: f}
}

// FuzzLeapMatchesStep runs random small colocated fleets with leaping
// on and off: the reports and event streams must be equal.
func FuzzLeapMatchesStep(f *testing.F) {
	for _, c := range leapGrid {
		f.Add(uint8(c.Requests), c.Rate, uint16(c.Prompt), uint16(c.Output), uint8(c.MaxBatch),
			uint16(c.KVTokens), uint8(c.Instances), uint16(c.CrashMs), uint16(c.SlowMs), c.Chunked, c.Autoscale)
	}
	f.Fuzz(func(t *testing.T, requests uint8, rate float64, prompt, output uint16, maxBatch uint8,
		kvTokens uint16, instances uint8, crashMs, slowMs uint16, chunked, autoscale bool) {
		if !(rate >= 1 && rate <= 200) {
			t.Skip("rate out of range")
		}
		c := leapCase{
			Requests:  1 + int(requests)%96,
			Rate:      rate,
			Prompt:    16 + int64(prompt)%1024,
			Output:    2 + int64(output)%256,
			MaxBatch:  1 + int(maxBatch)%32,
			KVTokens:  int64(kvTokens) % 4096,
			Instances: 1 + int(instances)%4,
			Router:    []string{"least-queue", "least-kv", "round-robin"}[int(prompt+output)%3],
			Chunked:   chunked,
			CrashMs:   float64(crashMs % 3000),
			SlowMs:    float64(slowMs % 3000),
			Autoscale: autoscale,
		}
		checkLeapMatchesStep(t, func() *spec.Spec { return c.spec() })
	})
}
