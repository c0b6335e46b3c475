package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// testServeConfig is the per-instance baseline: a small decoder so
// engine runs stay cheap.
func testServeConfig(p *hw.Platform) serve.Config {
	return serve.Config{
		Platform: p, Model: models.GPT2(), Seq: 64, Mode: engine.Eager,
		Policy: serve.ContinuousBatch, MaxBatch: 8, DefaultOutputLen: 4,
	}
}

func gpt2KVBytesPerToken() float64 {
	m := models.GPT2()
	return float64(2 * m.Layers * m.KVDim() * 2)
}

// mixedFleet is a 1+1 heterogeneous fleet (coupled + loosely coupled).
func mixedFleet() []Member {
	return []Member{
		{Serve: testServeConfig(hw.GH200())},
		{Serve: testServeConfig(hw.IntelH100())},
	}
}

func testLoad(t *testing.T, n int, rate float64, seed int64) []serve.Request {
	t.Helper()
	reqs, err := serve.Workload{
		Scenario: serve.ScenarioChat, N: n, RatePerSec: rate, Seed: seed,
		Prompt: serve.LengthDist{Mean: 48, Sigma: 0.5, Min: 16, Max: 96},
		Output: serve.LengthDist{Mean: 4, Sigma: 0.5, Min: 2, Max: 8},
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestClusterRoundRobinSpreadsLoad(t *testing.T) {
	reqs := testLoad(t, 20, 200, 7)
	st, _, err := Simulate(Config{Instances: mixedFleet(), Policy: RoundRobin}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 20 || st.Routed != 20 || st.Rejected != 0 || st.Unroutable != 0 {
		t.Fatalf("accounting: %+v", st)
	}
	for _, is := range st.Instances {
		if is.Routed != 10 {
			t.Errorf("%s routed %d, want 10 (round-robin over 2 instances)", is.Name, is.Routed)
		}
	}
	if st.LoadImbalance != 0 {
		t.Errorf("even split should have zero imbalance, got %g", st.LoadImbalance)
	}
	if st.P50TTFT <= 0 || st.P99TTFT < st.P95TTFT || st.P95TTFT < st.P50TTFT {
		t.Errorf("TTFT ordering broken: P50 %v P95 %v P99 %v", st.P50TTFT, st.P95TTFT, st.P99TTFT)
	}
	if st.MeanE2E < st.MeanTTFT {
		t.Errorf("E2E (%v) cannot beat TTFT (%v)", st.MeanE2E, st.MeanTTFT)
	}
}

// TestClusterDeterministic pins the acceptance criterion: a fixed seed
// reproduces byte-identical fleet statistics, including every nested
// per-instance series.
func TestClusterDeterministic(t *testing.T) {
	cfg := Config{
		Instances: mixedFleet(), Policy: LeastQueue,
		TTFTSLO: 200 * sim.Millisecond, AdmitRatePerSec: 150, AdmitBurst: 5,
	}
	a, _, err := Simulate(cfg, testLoad(t, 40, 300, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Simulate(cfg, testLoad(t, 40, 300, 11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed must reproduce byte-identical stats:\n a: %+v\n b: %+v", a, b)
	}
}

// TestClusterReconciliationUnderPressure drives every loss path at once
// — admission rejections, unroutable giants, queueing, preemption, and
// abandonment — and checks the request ledger still balances exactly.
func TestClusterReconciliationUnderPressure(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	fleet := mixedFleet()
	for i := range fleet {
		fleet[i].Serve.KVCapacityBytes = 110 * bpt // ~one request at a time
		fleet[i].Serve.AbandonAfter = 3 * sim.Millisecond
		fleet[i].Serve.DefaultOutputLen = 10
		fleet[i].Serve.Seq = 32
	}
	reqs := testLoad(t, 30, 400, 3)
	for i := range reqs {
		reqs[i].PromptLen = 32
		reqs[i].OutputLen = 10
	}
	// One giant that fits no instance's KV budget, arriving first so
	// the still-full admission bucket passes it through to the router.
	reqs = append(reqs, serve.Request{ID: 1000, Arrival: 0, PromptLen: 500, OutputLen: 10})

	st, _, err := Simulate(Config{
		Instances: fleet, Policy: LeastKV,
		AdmitRatePerSec: 100, AdmitBurst: 2,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered != len(reqs) {
		t.Fatalf("offered %d, want %d", st.Offered, len(reqs))
	}
	if st.Unroutable != 1 {
		t.Errorf("unroutable %d, want 1 (the giant)", st.Unroutable)
	}
	if st.Rejected == 0 {
		t.Error("a 100 req/s bucket under a 400 req/s burst must reject")
	}
	if st.Abandoned == 0 {
		t.Error("a one-request KV budget with 3ms patience must abandon")
	}
	if st.Offered != st.Rejected+st.Unroutable+st.Routed {
		t.Errorf("ledger broken: %d != %d + %d + %d", st.Offered, st.Rejected, st.Unroutable, st.Routed)
	}
	if st.Completed+st.Abandoned != st.Routed {
		t.Errorf("routed %d but settled %d + %d", st.Routed, st.Completed, st.Abandoned)
	}
	var perInstance int
	for _, is := range st.Instances {
		perInstance += is.Serve.Completed + is.Serve.Abandoned
	}
	if perInstance != st.Routed {
		t.Errorf("per-instance settlements %d != routed %d", perInstance, st.Routed)
	}
}

func TestClusterSessionAffinityPinsSessions(t *testing.T) {
	cal := sim.NewCalendar()
	a, err := serve.NewInstance("a", testServeConfig(hw.GH200()), cal)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.NewInstance("b", testServeConfig(hw.GH200()), cal)
	if err != nil {
		t.Fatal(err)
	}
	instances := []*serve.Instance{a, b}
	rt := NewRouter(SessionAffinity, 0)

	first := serve.Request{ID: 0, SessionID: 9, PromptLen: 32, OutputLen: 2}
	if idx := rt.Pick(first, instances); idx != 0 {
		t.Fatalf("empty fleet: first turn should land on instance 0, got %d", idx)
	}
	// Load instance 0 so least-outstanding would now prefer 1 —
	// affinity must still return the pinned instance.
	cal.Schedule(0, func(now sim.Time) {
		if err := a.Accept(now, first); err != nil {
			t.Errorf("accept: %v", err)
		}
	})
	cal.Step()
	if a.Outstanding() != 1 {
		t.Fatalf("instance 0 outstanding = %d, want 1", a.Outstanding())
	}
	later := serve.Request{ID: 1, SessionID: 9, PromptLen: 40, OutputLen: 2}
	if idx := rt.Pick(later, instances); idx != 0 {
		t.Errorf("session 9's later turn routed to %d, want its pinned instance 0", idx)
	}
	fresh := serve.Request{ID: 2, SessionID: 10, PromptLen: 32, OutputLen: 2}
	if idx := rt.Pick(fresh, instances); idx != 1 {
		t.Errorf("new session should take the least-loaded instance 1, got %d", idx)
	}
	sessionless := serve.Request{ID: 3, PromptLen: 32, OutputLen: 2}
	if idx := rt.Pick(sessionless, instances); idx != 1 {
		t.Errorf("sessionless request should balance to instance 1, got %d", idx)
	}
}

func TestClusterPlatformAwareSplitsRegimes(t *testing.T) {
	fleet := mixedFleet() // instance 0 coupled (GH200), instance 1 loose (Intel+H100)
	reqs := []serve.Request{
		{ID: 0, Arrival: 0, PromptLen: 64, OutputLen: 2},
		{ID: 1, Arrival: sim.Millisecond, PromptLen: 900, OutputLen: 2},
		{ID: 2, Arrival: 2 * sim.Millisecond, PromptLen: 128, OutputLen: 2},
		{ID: 3, Arrival: 3 * sim.Millisecond, PromptLen: 700, OutputLen: 2},
	}
	st, _, err := Simulate(Config{Instances: fleet, Policy: PlatformAware, ShortPrompt: 512}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances[0].Routed != 2 || st.Instances[1].Routed != 2 {
		t.Errorf("routed split %d/%d, want 2 short→GH200 and 2 long→Intel+H100",
			st.Instances[0].Routed, st.Instances[1].Routed)
	}
	if st.Completed != 4 {
		t.Errorf("completed %d of 4", st.Completed)
	}
}

func TestClusterPlatformAwareFallsBackAcrossGroups(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	fleet := mixedFleet()
	fleet[0].Serve.KVCapacityBytes = 100 * bpt // coupled budget too small for long prompts
	fleet[1].Serve.KVCapacityBytes = 1000 * bpt
	// A short prompt prefers the coupled instance; a long prompt
	// prefers the loose one; a long prompt also *only fits* the loose
	// one. A short prompt when the coupled instance cannot fit it must
	// fall back to the loose group rather than go unroutable.
	reqs := []serve.Request{
		{ID: 0, Arrival: 0, PromptLen: 300, OutputLen: 2}, // short boundary is 512 but exceeds coupled budget
	}
	st, _, err := Simulate(Config{Instances: fleet, Policy: PlatformAware, ShortPrompt: 512}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unroutable != 0 || st.Instances[1].Routed != 1 {
		t.Errorf("short-but-big request must fall back to the loose instance: %+v", st)
	}
}

func TestClusterLeastKVPrefersEmptierBudget(t *testing.T) {
	bpt := gpt2KVBytesPerToken()
	fleet := mixedFleet()
	fleet[0].Serve.KVCapacityBytes = 200 * bpt  // small budget: pressure rises fast
	fleet[1].Serve.KVCapacityBytes = 2000 * bpt // ten times the headroom
	reqs := testLoad(t, 16, 400, 5)
	st, _, err := Simulate(Config{Instances: fleet, Policy: LeastKV}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances[1].Routed <= st.Instances[0].Routed {
		t.Errorf("KV-aware routing should favor the 10x budget: %d vs %d",
			st.Instances[1].Routed, st.Instances[0].Routed)
	}
	if st.Completed != 16 {
		t.Errorf("completed %d of 16", st.Completed)
	}
}

func TestTokenBucket(t *testing.T) {
	tb := NewTokenBucket(10, 2) // 10/s refill, depth 2, starts full
	if !tb.Allow(0) || !tb.Allow(0) {
		t.Fatal("a full depth-2 bucket must admit two instant requests")
	}
	if tb.Allow(0) {
		t.Fatal("the third instant request must be rejected")
	}
	// 100ms refills one token.
	if !tb.Allow(100 * sim.Millisecond) {
		t.Fatal("one token refilled after 100ms")
	}
	if tb.Allow(100 * sim.Millisecond) {
		t.Fatal("only one token refilled")
	}
	// A long gap refills to the cap, not beyond.
	if !tb.Allow(10*sim.Second) || !tb.Allow(10*sim.Second) {
		t.Fatal("burst cap refilled")
	}
	if tb.Allow(10 * sim.Second) {
		t.Fatal("burst cap must bound the refill")
	}
}

func TestRouterPolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for name, want := range map[string]Policy{
		"rr": RoundRobin, "lq": LeastQueue, "kv": LeastKV,
		"affinity": SessionAffinity, "platform": PlatformAware,
	} {
		if got, err := ParsePolicy(name); err != nil || got != want {
			t.Errorf("alias %q = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy should fail")
	} else {
		// The error names every valid policy, so a typo is self-serving.
		for _, p := range Policies() {
			if !strings.Contains(err.Error(), p.String()) {
				t.Errorf("ParsePolicy error %q does not list %q", err, p.String())
			}
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, _, err := Simulate(Config{}, []serve.Request{{ID: 0}}); err == nil {
		t.Error("empty fleet should fail")
	}
	if _, _, err := Simulate(Config{Instances: mixedFleet()}, nil); err == nil {
		t.Error("no requests should fail")
	}
	bad := mixedFleet()
	bad[1].Serve.Platform = nil
	if _, _, err := Simulate(Config{Instances: bad}, []serve.Request{{ID: 0}}); err == nil {
		t.Error("nil platform should fail")
	}
	legacy := mixedFleet()
	legacy[0].Serve.Policy = serve.GreedyBatch
	if _, _, err := Simulate(Config{Instances: legacy}, []serve.Request{{ID: 0}}); err == nil ||
		!strings.Contains(err.Error(), "continuous") {
		t.Error("legacy batching policies cannot join a cluster")
	}
	if _, _, err := Simulate(Config{Instances: mixedFleet(), AdmitRatePerSec: -1}, []serve.Request{{ID: 0}}); err == nil {
		t.Error("negative admission rate should fail")
	}
}

// TestClusterSLOPropagation: the fleet SLO reaches instances that set
// none, and fleet goodput never exceeds throughput.
func TestClusterSLOPropagation(t *testing.T) {
	st, _, err := Simulate(Config{
		Instances: mixedFleet(), Policy: LeastQueue, TTFTSLO: sim.Nanosecond,
	}, testLoad(t, 10, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.SLOAttainment != 0 || st.Goodput != 0 {
		t.Errorf("1ns fleet SLO: attainment %.2f goodput %.1f, want 0/0", st.SLOAttainment, st.Goodput)
	}
	for _, is := range st.Instances {
		if is.Serve.SLOAttainment != 0 {
			t.Errorf("%s did not inherit the fleet SLO", is.Name)
		}
	}
	loose, _, err := Simulate(Config{
		Instances: mixedFleet(), Policy: LeastQueue, TTFTSLO: 3600 * sim.Second,
	}, testLoad(t, 10, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if loose.SLOAttainment != 1 || loose.Goodput != loose.Throughput {
		t.Errorf("1h SLO: attainment %.2f goodput %.1f vs throughput %.1f",
			loose.SLOAttainment, loose.Goodput, loose.Throughput)
	}
}

// loadedPool is an 80-instance mixed pool carrying uneven load (0 to 4
// queued requests each), plus requests of four prompt lengths across
// sixteen sessions to place on it.
func loadedPool(tb testing.TB) ([]*serve.Instance, []serve.Request) {
	cal := sim.NewCalendar()
	pool := make([]*serve.Instance, 80)
	for i := range pool {
		p := hw.GH200()
		if i%2 == 1 {
			p = hw.IntelH100()
		}
		in, err := serve.NewInstance(fmt.Sprintf("%s#%d", p.Name, i), testServeConfig(p), cal)
		if err != nil {
			tb.Fatal(err)
		}
		for k := 0; k < i%5; k++ {
			if err := in.Accept(0, serve.Request{ID: 8*i + k, PromptLen: 32, OutputLen: 4}); err != nil {
				tb.Fatal(err)
			}
		}
		pool[i] = in
	}
	reqs := make([]serve.Request, 64)
	for i := range reqs {
		reqs[i] = serve.Request{ID: 1000 + i, SessionID: int64(i%16 + 1), PromptLen: int64(16 + 16*(i%4)), OutputLen: 4}
	}
	return pool, reqs
}

// BenchmarkRouterPick times one placement decision per policy over the
// loaded pool (see loadedPool), cycling through its requests.
func BenchmarkRouterPick(b *testing.B) {
	pool, reqs := loadedPool(b)
	for _, policy := range Policies() {
		b.Run(policy.String(), func(b *testing.B) {
			rt := NewRouter(policy, 40)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rt.Pick(reqs[i%len(reqs)], pool) < 0 {
					b.Fatal("no instance fits")
				}
			}
		})
	}
}
