package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/kvcache"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
)

// contConfig is the continuous-batching test baseline: a small decoder
// on GH200 so engine runs stay cheap.
func contConfig() Config {
	return Config{
		Platform: hw.GH200(), Model: models.GPT2(), Seq: 64, Mode: engine.Eager,
		Policy: ContinuousBatch, MaxBatch: 8, DefaultOutputLen: 4,
	}
}

// gpt2KVBytesPerToken mirrors the scheduler's KV cost model for test
// arithmetic: 2 × layers × kvdim × 2 bytes.
func gpt2KVBytesPerToken() float64 {
	m := models.GPT2()
	return float64(2 * m.Layers * m.KVDim() * 2)
}

func TestContinuousBasics(t *testing.T) {
	reqs := mustUniform(t, 20, 5*sim.Millisecond)
	stats, err := Simulate(contConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 20 || stats.Completed != 20 || stats.Abandoned != 0 {
		t.Fatalf("conservation broken: %+v", stats)
	}
	if stats.P50TTFT <= 0 || stats.P95TTFT < stats.P50TTFT || stats.MaxTTFT < stats.P95TTFT {
		t.Errorf("TTFT ordering broken: P50 %v P95 %v max %v", stats.P50TTFT, stats.P95TTFT, stats.MaxTTFT)
	}
	if stats.MeanTPOT <= 0 || stats.P95TPOT < stats.P50TPOT {
		t.Errorf("TPOT ordering broken: mean %v P50 %v P95 %v", stats.MeanTPOT, stats.P50TPOT, stats.P95TPOT)
	}
	if stats.P95E2E < stats.P95TTFT {
		t.Errorf("E2E (%v) cannot beat TTFT (%v)", stats.P95E2E, stats.P95TTFT)
	}
	if stats.TokensPerSec <= 0 || stats.Throughput <= 0 {
		t.Errorf("throughput: %+v", stats)
	}
	if stats.PeakKVFrac <= 0 || stats.PeakKVFrac > 1 {
		t.Errorf("peak KV fraction = %v, want (0,1]", stats.PeakKVFrac)
	}
	if len(stats.KVOccupancy) == 0 || len(stats.QueueDepth) == 0 {
		t.Error("state series not recorded")
	}
	for i := 1; i < len(stats.KVOccupancy); i++ {
		if stats.KVOccupancy[i].T < stats.KVOccupancy[i-1].T {
			t.Fatal("KV series timestamps must be non-decreasing")
		}
	}
}

// TestContinuousBeatsRunToCompletion is the deterministic end-to-end
// scenario from the issue: under an identical Poisson stream, iteration
// -level admission must contain P95 TTFT relative to run-to-completion
// BS=1 (which holds the engine for every request's full generation) and
// move more tokens.
func TestContinuousBeatsRunToCompletion(t *testing.T) {
	reqs, err := PoissonArrivals(24, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		reqs[i].OutputLen = 8
	}
	cont := contConfig()
	cont.MaxBatch = 8
	rtc := contConfig()
	rtc.MaxBatch = 1

	cs, err := Simulate(cont, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(rtc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cs.P95TTFT >= rs.P95TTFT {
		t.Errorf("continuous P95 TTFT (%v) should beat run-to-completion BS=1 (%v)", cs.P95TTFT, rs.P95TTFT)
	}
	if cs.TokensPerSec <= rs.TokensPerSec {
		t.Errorf("continuous tok/s (%.0f) should beat BS=1 (%.0f)", cs.TokensPerSec, rs.TokensPerSec)
	}
	if cs.MeanBatch <= rs.MeanBatch {
		t.Errorf("continuous mean batch (%.1f) should exceed BS=1's (%.1f)", cs.MeanBatch, rs.MeanBatch)
	}
}

func TestContinuousKVAdmissionBoundary(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	// Room for one 64-token prompt plus its 4 output tokens, not two
	// prompts: the second request must queue until the first releases.
	cfg.KVCapacityBytes = 96 * bpt
	reqs := mustUniform(t, 3, sim.Microsecond)
	stats, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 3 {
		t.Fatalf("completed %d of 3", stats.Completed)
	}
	if stats.MaxQueueDepth == 0 {
		t.Error("tiny KV budget must force queueing")
	}
	if stats.MeanBatch > 1.01 {
		t.Errorf("mean batch %.2f: budget fits one request at a time", stats.MeanBatch)
	}
	if stats.PeakKVBytes > cfg.KVCapacityBytes {
		t.Errorf("KV peak %.0f exceeded the %.0f budget", stats.PeakKVBytes, cfg.KVCapacityBytes)
	}
}

func TestContinuousExactBoundaryAdmitsBothPrompts(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	cfg.DefaultOutputLen = 1 // no decode growth: prompts only
	// Exactly two 64-token prompts: admission at the precise boundary.
	cfg.KVCapacityBytes = 2 * 65 * bpt // 64-token prompt + 1 generated token each
	reqs := simultaneousArrivals(2)    // simultaneous arrivals
	stats, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxQueueDepth != 0 {
		t.Errorf("both prompts fit exactly; queue depth %d", stats.MaxQueueDepth)
	}
	if stats.MeanBatch < 1.5 {
		t.Errorf("mean batch %.2f: both should run together", stats.MeanBatch)
	}
}

func TestContinuousPreemptsOnKVGrowth(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	cfg.Seq = 32
	cfg.DefaultOutputLen = 10
	// Both 32-token prompts fit (64 × bpt), each request's lifetime
	// footprint (42) fits alone, but joint decode growth overflows: the
	// younger request must be preempted and recomputed.
	cfg.KVCapacityBytes = 70 * bpt
	reqs := mustUniform(t, 2, sim.Microsecond)
	stats, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Preemptions == 0 {
		t.Error("joint KV growth past the budget must preempt")
	}
	if stats.Completed != 2 {
		t.Errorf("preempted request must still complete: %d of 2", stats.Completed)
	}
	if stats.PeakKVBytes > cfg.KVCapacityBytes {
		t.Errorf("KV peak %.0f exceeded the %.0f budget", stats.PeakKVBytes, cfg.KVCapacityBytes)
	}
}

// TestChunkedPrefillPreemptsSeveralVictims pins a chunked-prefill run
// in which one scheduling decision preempts more than one request: a
// 24-token prompt, prefilled in 16-token chunks, ahead of seven 1-token
// prompts whose joint decode growth overflows a 100-token budget. Each
// young victim frees only a few tokens, so freeing one iteration's
// growth takes several.
func TestChunkedPrefillPreemptsSeveralVictims(t *testing.T) {
	cfg := contConfig()
	cfg.Policy = ChunkedPrefill
	cfg.PrefillChunk = 16
	cfg.KVCapacityBytes = 100 * gpt2KVBytesPerToken()
	cal := sim.NewCalendar()
	in, err := NewInstance("i0", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		req := Request{ID: i, PromptLen: 1, OutputLen: 12}
		if i == 0 {
			req.PromptLen = 24
		}
		cal.Schedule(sim.Time(i)*sim.Microsecond, func(now sim.Time) {
			if err := in.Accept(now, req); err != nil {
				t.Error(err)
			}
		})
	}
	// A calendar step runs one event, so it kicks at most once.
	most := 0
	for {
		before := in.s.preemptions
		if !cal.Step() {
			break
		}
		most = max(most, in.s.preemptions-before)
	}
	if err := in.Err(); err != nil {
		t.Fatal(err)
	}
	if most < 2 {
		t.Errorf("at most %d preemptions in one kick, want a kick that preempts at least 2", most)
	}
	st := in.Stats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Completed", int64(st.Completed), 8},
		{"Preemptions", int64(st.Preemptions), 6},
		{"Batches", int64(st.Batches), 25},
		{"TokensOut", st.TokensOut, 96},
		{"P50TTFT", int64(st.P50TTFT), 163138014},
		{"P95E2E", int64(st.P95E2E), 628163454},
		{"Horizon", int64(st.Horizon), 628163454},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MeanBatch", st.MeanBatch, 5.04},
		{"PeakKVBytes", st.PeakKVBytes, 3.6864e+06},
		{"MeanKVFrac", st.MeanKVFrac, 0.3850689287791645},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestContinuousFirstTokenGrowthRespectsBudget pins the overrun found
// in review: two 50-token prompts exactly fill a 100-token budget, and
// the first tokens their prefill completions emit must not push KV past
// capacity — the scheduler has to serialize or preempt instead.
func TestContinuousFirstTokenGrowthRespectsBudget(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	cfg.Seq = 50
	cfg.DefaultOutputLen = 2
	cfg.KVCapacityBytes = 100 * bpt
	stats, err := Simulate(cfg, simultaneousArrivals(2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakKVBytes > cfg.KVCapacityBytes {
		t.Errorf("KV peak %.0f exceeded the %.0f budget", stats.PeakKVBytes, cfg.KVCapacityBytes)
	}
	if stats.PeakKVFrac > 1 {
		t.Errorf("peak KV fraction %v > 1", stats.PeakKVFrac)
	}
	if stats.Completed != 2 {
		t.Errorf("completed %d of 2", stats.Completed)
	}
}

func TestContinuousInfeasibleRequestRejected(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	cfg.KVCapacityBytes = 40 * bpt // less than one 64-token prompt
	_, err := Simulate(cfg, mustUniform(t, 1, sim.Microsecond))
	if err == nil || !strings.Contains(err.Error(), "KV") {
		t.Fatalf("oversized request should be rejected with a KV message, got %v", err)
	}
}

// TestContinuousAbandonment exercises the Calendar.Cancel interaction:
// a queue-blocked request abandons when its patience expires, while
// admitted requests — whose abandon timers were cancelled — never do.
func TestContinuousAbandonment(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	cfg.DefaultOutputLen = 16
	cfg.KVCapacityBytes = 96 * bpt // one request at a time
	cfg.AbandonAfter = 2 * sim.Millisecond
	// Request 0 admits immediately and runs long; request 1 queues
	// behind it past its patience.
	reqs := mustUniform(t, 2, sim.Microsecond)
	stats, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Abandoned != 1 {
		t.Errorf("abandoned %d, want 1 (the queue-blocked request)", stats.Abandoned)
	}
	if stats.Completed != 1 {
		t.Errorf("completed %d, want 1", stats.Completed)
	}

	// With ample KV both admit instantly: the timers must be cancelled,
	// never fired — no request may be dropped mid-generation.
	cfg2 := contConfig()
	cfg2.DefaultOutputLen = 16
	cfg2.AbandonAfter = 1 * sim.Microsecond // far shorter than a generation
	stats2, err := Simulate(cfg2, simultaneousArrivals(2))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Abandoned != 0 || stats2.Completed != 2 {
		t.Errorf("admitted requests must not abandon: %+v", stats2)
	}
}

func TestChunkedPrefillSpreadsPromptWork(t *testing.T) {
	cfg := contConfig()
	cfg.Policy = ChunkedPrefill
	cfg.Seq = 512
	cfg.PrefillChunk = 128
	cfg.DefaultOutputLen = 3
	stats, err := Simulate(cfg, mustUniform(t, 1, sim.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	// 512/128 = 4 prefill iterations + 2 further decode iterations.
	if stats.Batches != 6 {
		t.Errorf("iterations = %d, want 6 (4 prefill chunks + 2 decodes)", stats.Batches)
	}

	whole := contConfig()
	whole.Seq = 512
	whole.DefaultOutputLen = 3
	ws, err := Simulate(whole, mustUniform(t, 1, sim.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Batches != 3 {
		t.Errorf("whole-prompt iterations = %d, want 3 (1 prefill + 2 decodes)", ws.Batches)
	}
}

func TestContinuousEncoderModelRejected(t *testing.T) {
	cfg := contConfig()
	cfg.Model = models.BertBaseUncased()
	cfg.DefaultOutputLen = 2
	if _, err := Simulate(cfg, mustUniform(t, 2, sim.Millisecond)); err == nil {
		t.Error("decode phase needs a decoder-only model")
	}
}

// TestContinuousGoodput checks SLO accounting: an impossible SLO yields
// zero goodput, an infinite one matches throughput.
func TestContinuousGoodput(t *testing.T) {
	cfg := contConfig()
	cfg.TTFTSLO = sim.Nanosecond
	reqs := mustUniform(t, 8, sim.Millisecond)
	tight, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if tight.SLOAttainment != 0 || tight.Goodput != 0 {
		t.Errorf("1ns SLO: attainment %.2f goodput %.1f, want 0/0", tight.SLOAttainment, tight.Goodput)
	}
	cfg.TTFTSLO = sim.Time(1) * 3600 * sim.Second
	loose, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if loose.SLOAttainment != 1 || loose.Goodput != loose.Throughput {
		t.Errorf("1h SLO: attainment %.2f goodput %.1f vs throughput %.1f",
			loose.SLOAttainment, loose.Goodput, loose.Throughput)
	}
}

// warmIteration builds the steady state BenchmarkSchedulerIteration
// times: llama-3.2-1B decoding 16 requests of 512-token prompts on
// GH200, with the next (decode) iteration in flight over a warm shared
// step oracle. round finishes that iteration and kicks the next one,
// first restoring every request's progress so each round starts from
// the same batch state and hits one warm oracle entry; check reports a
// batch that changed under the rounds.
func warmIteration(tb testing.TB) (round func(), check func()) {
	cfg := Config{
		Platform: hw.GH200(), Model: models.Llama32_1B(), Seq: 512, Mode: engine.Eager,
		Policy: ContinuousBatch, MaxBatch: 16, LatencyBucket: 64,
	}
	cal := sim.NewCalendar()
	s, err := newContSim(cfg, cal)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < cfg.MaxBatch; i++ {
		cr, err := s.newRequest(Request{ID: i, PromptLen: 512, OutputLen: 256})
		if err != nil {
			tb.Fatal(err)
		}
		s.arrive(0, cr)
	}
	// Run through the batched prefill: every request has its first
	// token and the next (decode) iteration is in flight.
	decoding := func() int {
		n := 0
		for _, r := range s.running {
			if r.hasFirst {
				n++
			}
		}
		return n
	}
	for decoding() < cfg.MaxBatch {
		if !cal.Step() {
			tb.Fatal("calendar drained before every request started decoding")
		}
	}
	gens := make([]int64, len(s.running))
	kvs := make([]float64, len(s.running))
	for i, r := range s.running {
		gens[i], kvs[i] = r.generated, r.kvBytes
	}
	kvUsed := s.kvUsed
	round = func() {
		for i, r := range s.running {
			r.generated, r.kvBytes = gens[i], kvs[i]
		}
		s.kvUsed = kvUsed
		cal.Step() // finish the in-flight iteration, kick the next
	}
	round() // warm the oracle entry every later round hits
	check = func() {
		if s.err != nil || len(s.running) != cfg.MaxBatch {
			tb.Fatalf("batch changed under the rounds: err %v, %d running", s.err, len(s.running))
		}
	}
	return round, check
}

// BenchmarkSchedulerIteration times one scheduling round of the
// continuous batcher: a finish (16 decode tokens emitted, state
// sampled) plus the kick that plans and schedules the next iteration
// (see warmIteration).
func BenchmarkSchedulerIteration(b *testing.B) {
	round, check := warmIteration(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	check()
}

// warmArrival returns one whole request lifecycle on a warm continuous
// batcher: a request arrives at an idle instance, is admitted, prefills,
// decodes its two tokens and finishes. The first cycle runs here, so the
// oracle entries every later cycle hits are filled.
func warmArrival(tb testing.TB) (cycle func()) {
	cfg := Config{
		Platform: hw.GH200(), Model: models.Llama32_1B(), Seq: 512, Mode: engine.Eager,
		Policy: ContinuousBatch, MaxBatch: 16, LatencyBucket: 64,
	}
	cal := sim.NewCalendar()
	s, err := newContSim(cfg, cal)
	if err != nil {
		tb.Fatal(err)
	}
	cycle = func() {
		now := cal.Now()
		cr, err := s.newRequest(Request{ID: s.completed, Arrival: now, PromptLen: 512, OutputLen: 2})
		if err != nil {
			tb.Fatal(err)
		}
		want := s.completed + 1
		s.arrive(now, cr)
		for s.completed < want {
			if !cal.Step() {
				tb.Fatalf("calendar drained before request %d finished", cr.req.ID)
			}
		}
		if s.err != nil || s.waiting.len() != 0 || len(s.running) != 0 {
			tb.Fatalf("instance not idle after a cycle: err %v, %d waiting, %d running", s.err, s.waiting.len(), len(s.running))
		}
	}
	cycle()
	return cycle
}

// TestWaitQueueMatchesSlice drives the wait queue with random pushes,
// front pushes, pops and removals against a plain slice: the same
// requests in the same order after every operation.
func TestWaitQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q waitQueue
	var ref []*contRequest
	for op := 0; op < 20000; op++ {
		r := &contRequest{chunk: int64(op)}
		switch k := rng.Intn(10); {
		case k < 5:
			q.push(r)
			ref = append(ref, r)
		case k < 6:
			q.pushFront(r)
			ref = append([]*contRequest{r}, ref...)
		case k < 9 && len(ref) > 0:
			if q.front() != ref[0] {
				t.Fatalf("op %d: front differs", op)
			}
			q.popFront()
			ref = ref[1:]
		case len(ref) > 0:
			i := rng.Intn(len(ref))
			q.remove(i)
			ref = append(ref[:i:i], ref[i+1:]...)
		}
		if !slices.Equal(q.items(), ref) || q.len() != len(ref) {
			t.Fatalf("op %d: queue holds %d requests, reference %d, or their order differs", op, q.len(), len(ref))
		}
	}
}

// TestRunningFlagMatchesSlice: every request's running flag agrees with
// its membership of the running batch after each calendar step of a
// chunked-prefill run that preempts, on a full instance, a prefill-only
// instance that hands off, and one killed mid-run.
func TestRunningFlagMatchesSlice(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	cfg.Policy = ChunkedPrefill
	cfg.PrefillChunk = 16
	cfg.Seq = 40
	cfg.DefaultOutputLen = 12
	cfg.KVCapacityBytes = 120 * bpt
	for _, mode := range []string{"full", "handoff", "kill"} {
		t.Run(mode, func(t *testing.T) {
			cal := sim.NewCalendar()
			in, err := NewInstance("i0", cfg, cal)
			if err != nil {
				t.Fatal(err)
			}
			handed := 0
			if mode == "handoff" {
				in.SetHandoff(func(sim.Time, Handoff) { handed++ })
			}
			for i := 0; i < 12; i++ {
				req := Request{ID: i}
				cal.Schedule(sim.Time(i)*sim.Millisecond, func(now sim.Time) {
					if err := in.Accept(now, req); err != nil {
						t.Error(err)
					}
				})
			}
			s := in.s
			var seen []*contRequest
			check := func(step int) {
				for _, r := range s.waiting.items() {
					if !slices.Contains(seen, r) {
						seen = append(seen, r)
					}
				}
				for _, r := range seen {
					if r.running != slices.Contains(s.running, r) {
						t.Fatalf("step %d: request %d has running=%v, batch membership %v",
							step, r.req.ID, r.running, !r.running)
					}
				}
			}
			killed := 0
			for step := 0; cal.Step(); step++ {
				check(step)
				if mode == "kill" && killed == 0 && s.preemptions > 0 && len(s.running) > 0 && s.waiting.len() > 0 {
					killed = len(in.Kill(cal.Now()))
					check(step)
				}
			}
			if s.err != nil {
				t.Fatal(s.err)
			}
			switch mode {
			case "full":
				if s.preemptions == 0 || s.completed != 12 {
					t.Fatalf("want preemptions and 12 completions, got %d preemptions, %d completed", s.preemptions, s.completed)
				}
			case "handoff":
				if handed != 12 {
					t.Fatalf("handed off %d of 12", handed)
				}
			case "kill":
				if killed == 0 {
					t.Fatal("the run never reached a kill point")
				}
			}
			for _, r := range seen {
				if r.running {
					t.Fatalf("request %d still flagged running after the run", r.req.ID)
				}
			}
		})
	}
}

// TestBlockDetailMatchesFmt: the cache events' strconv-built Detail
// text equals the fmt formats it replaces, over a grid of grant counts
// from 0 to the int64 extremes and of byte sizes that round both ways.
func TestBlockDetailMatchesFmt(t *testing.T) {
	counts := []int{0, 1, 7, 64, 999, 123456, 1<<31 - 1, math.MaxInt64, math.MinInt64}
	for i, a := range counts {
		for j, b := range counts {
			c, d := counts[(i+j)%len(counts)], counts[(i+2*j+1)%len(counts)]
			g := kvcache.Grant{Hits: a, Restored: b, Misses: c, CreditTokens: int64(d), Evicted: a, Spilled: c, HostEvicted: b}
			if got, want := blockHitDetail(g), fmt.Sprintf("hits=%d restored=%d misses=%d credit=%d", g.Hits, g.Restored, g.Misses, g.CreditTokens); got != want {
				t.Errorf("block-hit detail %q, want %q", got, want)
			}
			if got, want := blockEvictDetail(g), fmt.Sprintf("evicted=%d spilled=%d host_dropped=%d", g.Evicted, g.Spilled, g.HostEvicted); got != want {
				t.Errorf("block-evict detail %q, want %q", got, want)
			}
		}
	}
	for _, blocks := range counts {
		for _, bytes := range []float64{0, 0.4, 0.5, 1.5, 2.5, 1023.49, 16 * 2 * 128 * 1024, 3.2e12 + 0.5, 1e20, 1.7976931348623157e308} {
			if got, want := blockRestoreDetail(blocks, bytes), fmt.Sprintf("blocks=%d bytes=%.0f", blocks, bytes); got != want {
				t.Errorf("block-restore detail %q, want %q", got, want)
			}
		}
	}
}

// TestOneRequestMatchesEngine ties the serving layer to the executor: a
// lone request served continuously at latency bucket 1 (exact oracle
// lengths) has the engine's TTFT, and its E2E is a generation of its
// N−1 decode steps, TimeGenerate(N−1).Total; at N = 1 both are Time's
// TTFT. Checked on every catalog platform in both modes RunGenerate
// accepts, at two prompt lengths.
func TestOneRequestMatchesEngine(t *testing.T) {
	m := models.Llama32_1B()
	for _, name := range hw.PlatformNames() {
		p, err := hw.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.Eager, engine.Flash} {
			for _, prompt := range []int64{64, 300} {
				for _, n := range []int64{1, 2, 9} {
					cfg := Config{
						Platform: p, Model: m, Seq: prompt, Mode: mode,
						Policy: ContinuousBatch, MaxBatch: 8, LatencyBucket: 1,
					}
					st, err := Simulate(cfg, []Request{{PromptLen: prompt, OutputLen: n}})
					if err != nil {
						t.Fatal(err)
					}
					if st.Completed != 1 {
						t.Fatalf("%s %v prompt %d N=%d: completed %d of 1", name, mode, prompt, n, st.Completed)
					}
					req := engine.Request{Platform: p, Model: m, Batch: 1, Seq: prompt, Mode: mode}
					var ttft, e2e sim.Time
					if n == 1 {
						r, err := engine.Time(req)
						if err != nil {
							t.Fatal(err)
						}
						ttft, e2e = r.TTFT, r.TTFT
					} else {
						g, err := engine.TimeGenerate(req, int(n-1))
						if err != nil {
							t.Fatal(err)
						}
						ttft, e2e = g.TTFT, g.Total
					}
					if st.MaxTTFT != ttft || st.MaxE2E != e2e {
						t.Errorf("%s %v prompt %d N=%d: serve TTFT %v E2E %v, engine %v and %v",
							name, mode, prompt, n, st.MaxTTFT, st.MaxE2E, ttft, e2e)
					}
				}
			}
		}
	}
}
