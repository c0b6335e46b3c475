package serve

import (
	"math/rand"
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

// TestInstanceMatchesSimulate pins the refactor invariant: an Instance
// driven by an external calendar must reproduce Simulate's results
// exactly when every request is handed to it at its arrival time.
func TestInstanceMatchesSimulate(t *testing.T) {
	cfg := contConfig()
	reqs := mustUniform(t, 12, 2*sim.Millisecond)

	want, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}

	cal := sim.NewCalendar()
	in, err := NewInstance("solo", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		req := reqs[i]
		cal.Schedule(req.Arrival, func(now sim.Time) {
			if err := in.Accept(now, req); err != nil {
				t.Errorf("accept %d: %v", req.ID, err)
			}
		})
	}
	cal.Run()
	if err := in.Err(); err != nil {
		t.Fatal(err)
	}
	got := in.Stats()

	if got.Completed != want.Completed || got.Batches != want.Batches ||
		got.P50TTFT != want.P50TTFT || got.P95TTFT != want.P95TTFT ||
		got.P95E2E != want.P95E2E || got.TokensOut != want.TokensOut ||
		got.Horizon != want.Horizon || got.PeakKVBytes != want.PeakKVBytes {
		t.Errorf("externally-driven instance diverged from Simulate:\n got %+v\nwant %+v", got, want)
	}
	if in.Routed() != len(reqs) {
		t.Errorf("routed %d, want %d", in.Routed(), len(reqs))
	}
	ttfts, _, e2es := in.Latencies()
	if len(ttfts) != want.Completed || len(e2es) != want.Completed {
		t.Errorf("latency samples %d/%d, want %d each", len(ttfts), len(e2es), want.Completed)
	}
}

func TestInstanceSharedCalendarInterleaves(t *testing.T) {
	cfg := contConfig()
	cal := sim.NewCalendar()
	a, err := NewInstance("a", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInstance("b", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate arrivals between the two instances on one clock.
	reqs := mustUniform(t, 10, sim.Millisecond)
	for i := range reqs {
		req := reqs[i]
		dst := a
		if i%2 == 1 {
			dst = b
		}
		cal.Schedule(req.Arrival, func(now sim.Time) {
			if err := dst.Accept(now, req); err != nil {
				t.Errorf("accept %d: %v", req.ID, err)
			}
		})
	}
	cal.Run()
	sa, sb := a.Stats(), b.Stats()
	if sa.Completed != 5 || sb.Completed != 5 {
		t.Errorf("completed %d + %d, want 5 + 5", sa.Completed, sb.Completed)
	}
	if a.Routed()+b.Routed() != len(reqs) {
		t.Errorf("routed %d + %d, want %d total", a.Routed(), b.Routed(), len(reqs))
	}
}

func TestInstanceValidation(t *testing.T) {
	cfg := contConfig()
	if _, err := NewInstance("x", cfg, nil); err == nil {
		t.Error("nil calendar should fail")
	}
	legacy := cfg
	legacy.Policy = GreedyBatch
	if _, err := NewInstance("x", legacy, sim.NewCalendar()); err == nil {
		t.Error("legacy run-to-completion policy cannot be externally stepped")
	}
}

func TestInstanceFitsAndAcceptReject(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	cfg.KVCapacityBytes = 40 * bpt // less than one 64-token default prompt
	cal := sim.NewCalendar()
	in, err := NewInstance("tiny", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	big := Request{ID: 0} // falls back to Seq=64 + DefaultOutputLen
	if in.Fits(big) {
		t.Error("64-token lifetime cannot fit a 40-token budget")
	}
	if err := in.Accept(0, big); err == nil {
		t.Error("accepting an infeasible request should fail")
	}
	if in.Routed() != 0 {
		t.Errorf("rejected request must not count as routed: %d", in.Routed())
	}
	small := Request{ID: 1, PromptLen: 16, OutputLen: 2}
	if !in.Fits(small) {
		t.Error("18-token lifetime fits a 40-token budget")
	}
}

func TestInstanceLoadAccessors(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	cfg := contConfig()
	cfg.KVCapacityBytes = 96 * bpt // one 64+4 request at a time
	cal := sim.NewCalendar()
	in, err := NewInstance("x", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		req := Request{ID: i}
		cal.Schedule(0, func(now sim.Time) {
			if err := in.Accept(now, req); err != nil {
				t.Errorf("accept: %v", err)
			}
		})
	}
	// Fire the two same-instant arrivals plus the deferred kick, then
	// inspect mid-simulation state: one running, one queued.
	cal.Step()
	cal.Step()
	cal.Step()
	if in.Running() != 1 || in.QueueDepth() != 1 || in.Outstanding() != 2 {
		t.Errorf("running %d queue %d outstanding %d, want 1/1/2",
			in.Running(), in.QueueDepth(), in.Outstanding())
	}
	if in.KVFrac() <= 0 || in.KVFrac() > 1 {
		t.Errorf("KV frac %v", in.KVFrac())
	}
	// Pressure counts the queued prompt too: 64 admitted + 64 queued of
	// the 96 budget.
	if in.KVPressure() <= in.KVFrac() {
		t.Errorf("pressure %v should exceed admitted fraction %v with a queued prompt",
			in.KVPressure(), in.KVFrac())
	}
	cal.Run()
	if s := in.Stats(); s.Completed != 2 {
		t.Errorf("completed %d of 2", s.Completed)
	}
}

// TestKVPressureMatchesScan: the wait queue's running sum of prompt
// tokens survives random pushes, front pushes (preemption requeues),
// pops (admissions), removals (abandonments) and the reset a kill
// performs, and KVPressure over it equals, bit for bit, the scan that
// sums every queued prompt's footprint onto the admitted occupancy.
func TestKVPressureMatchesScan(t *testing.T) {
	in, err := NewInstance("x", contConfig(), sim.NewCalendar())
	if err != nil {
		t.Fatal(err)
	}
	s := in.s
	scan := func() float64 {
		pending := s.kvUsed
		for _, w := range s.waiting.items() {
			pending += float64(float64(w.req.PromptLen) * s.bytesPerTok)
		}
		return pending / s.capacity
	}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20000; op++ {
		q := &s.waiting
		r := &contRequest{req: Request{ID: op, PromptLen: 1 + rng.Int63n(32768)}}
		switch k := rng.Intn(100); {
		case k < 40:
			q.push(r)
		case k < 50:
			q.pushFront(r)
		case k < 75 && q.len() > 0:
			q.popFront()
		case k < 98 && q.len() > 0:
			q.remove(rng.Intn(q.len()))
		case k >= 98:
			s.waiting = waitQueue{}
		}
		s.kvUsed = float64(rng.Int63n(1<<20)) * s.bytesPerTok
		var tokens int64
		for _, w := range s.waiting.items() {
			tokens += w.req.PromptLen
		}
		if s.waiting.tokens != tokens {
			t.Fatalf("op %d: queue keeps %d prompt tokens, holds %d", op, s.waiting.tokens, tokens)
		}
		if got, want := in.KVPressure(), scan(); got != want {
			t.Fatalf("op %d: KVPressure %v, scan %v", op, got, want)
		}
	}
}
