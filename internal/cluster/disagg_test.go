package cluster

import (
	"reflect"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// disaggBase is a small, fast per-instance serving config.
func disaggBase() serve.Config {
	m, err := models.ByName("llama-3.2-1B")
	if err != nil {
		panic(err)
	}
	return serve.Config{
		Model:         m,
		Policy:        serve.ContinuousBatch,
		Seq:           512,
		MaxBatch:      16,
		LatencyBucket: 256,
	}
}

// disaggLoad is a deterministic chat stream with real output lengths.
func disaggLoad(t *testing.T, n int) []serve.Request {
	t.Helper()
	reqs, err := serve.Workload{
		Scenario: serve.ScenarioChat, N: n, RatePerSec: 30, Seed: 9,
		Prompt: serve.LengthDist{Mean: 256, Sigma: 0.5, Min: 32, Max: 1024},
		Output: serve.LengthDist{Mean: 24, Sigma: 0.5, Min: 4, Max: 64},
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// members expands one homogeneous slice of a fleet: n members of one
// platform and role over disaggBase.
func members(p *hw.Platform, n int, role Role) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{Serve: disaggBase(), Role: role}
		ms[i].Serve.Platform = p
	}
	return ms
}

// disaggConfig is a 1 prefill + 2 decode fleet.
func disaggConfig() Config {
	return Config{
		Instances: append(members(hw.GH200(), 1, RolePrefill), members(hw.IntelH100(), 2, RoleDecode)...),
		Policy:    LeastQueue,
		TTFTSLO:   500 * sim.Millisecond,
		Disagg:    &Disaggregation{DecodePolicy: LeastKV},
	}
}

// TestTransferTimeInterconnectOrdering pins the transfer model to the
// paper's asymmetry: a coupled→coupled handoff (NVLink-C2C, no host
// hop) must beat a mixed pair, which must beat a discrete→discrete
// PCIe transfer that store-and-forwards through both hosts.
func TestTransferTimeInterconnectOrdering(t *testing.T) {
	var tm TransferModel
	gh, intel := hw.GH200(), hw.IntelH100()
	const bytes = 256 << 20 // a 256 MB cache

	cc := tm.Time(gh, gh, bytes)
	mixed := tm.Time(gh, intel, bytes)
	lc := tm.Time(intel, intel, bytes)
	if !(cc < mixed && mixed < lc) {
		t.Errorf("transfer ordering broken: coupled %v, mixed %v, discrete %v", cc, mixed, lc)
	}

	// Exact math: coupled pair moves at NVLink-C2C rate with two
	// initiation latencies and no host hop.
	wantCC := sim.FromNs(2*gh.IC.LatencyNs + bytes/gh.IC.BandwidthGBps)
	if cc != wantCC {
		t.Errorf("coupled transfer = %v, want %v", cc, wantCC)
	}
	// Discrete pair is gated by the slower PCIe link and pays the
	// default host-hop multiplier once per endpoint.
	wantLC := sim.FromNs(2*intel.IC.LatencyNs +
		DefaultHostHopMultiplier*DefaultHostHopMultiplier*bytes/intel.IC.BandwidthGBps)
	if lc != wantLC {
		t.Errorf("discrete transfer = %v, want %v", lc, wantLC)
	}

	// The bandwidth override replaces the link rate but keeps the
	// endpoint topology (latency + hops).
	fat := TransferModel{BandwidthGBps: 900}
	if got, want := fat.Time(gh, gh, bytes), sim.FromNs(2*gh.IC.LatencyNs+bytes/900.0); got != want {
		t.Errorf("override transfer = %v, want %v", got, want)
	}
	// A unit multiplier erases the discrete penalty entirely.
	flat := TransferModel{HostHopMultiplier: 1}
	if got, want := flat.Time(intel, intel, bytes), sim.FromNs(2*intel.IC.LatencyNs+bytes/intel.IC.BandwidthGBps); got != want {
		t.Errorf("flat transfer = %v, want %v", got, want)
	}

	if tm.Time(gh, intel, 0) != 0 {
		t.Error("zero bytes should transfer in zero time")
	}
}

// TestZeroBandwidthPlatformRejected: hw validation deliberately permits
// zero interconnect bandwidth on unified-physical-memory platforms
// (CPU↔GPU transfers are free there), but an instance-to-instance KV
// handoff still crosses a wire — without an override the transfer model
// would divide by zero and price every handoff at +Inf. Such fleets
// must be rejected at config validation with the platform named; an
// explicit Transfer.BandwidthGBps override makes them legal again.
func TestZeroBandwidthPlatformRejected(t *testing.T) {
	unified := hw.MI300A()
	unified.Name = "CustomUnified"
	unified.IC.BandwidthGBps = 0
	if err := unified.Validate(); err != nil {
		t.Fatalf("zero IC bandwidth should pass hw validation on a unified platform: %v", err)
	}

	cfg := disaggConfig()
	cfg.Instances = append(members(unified, 1, RolePrefill), members(hw.IntelH100(), 1, RoleDecode)...)
	_, _, err := Simulate(cfg, disaggLoad(t, 4))
	if err == nil {
		t.Fatal("fleet with an unpriceable transfer endpoint should be rejected")
	}
	if !strings.Contains(err.Error(), "CustomUnified") || !strings.Contains(err.Error(), "bandwidth") {
		t.Errorf("error should name the platform and the missing bandwidth, got: %v", err)
	}

	// The override restores a finite price and the fleet simulates.
	cfg.Disagg.Transfer.BandwidthGBps = 100
	_, st, err := Simulate(cfg, disaggLoad(t, 4))
	if err != nil {
		t.Fatalf("override should make the fleet legal: %v", err)
	}
	if st.Transfers == 0 || st.MeanTransfer <= 0 {
		t.Errorf("overridden fleet should price transfers finitely, got %d transfers, mean %v",
			st.Transfers, st.MeanTransfer)
	}

	// An all-"both" fleet never hands a cache off — no RolePrefill
	// source, no transfers — so the unpriceable link is irrelevant and
	// the fleet stays legal without an override.
	cfg.Disagg.Transfer.BandwidthGBps = 0
	cfg.Instances = append(members(unified, 1, RoleBoth), members(hw.IntelH100(), 1, RoleBoth)...)
	_, st, err = Simulate(cfg, disaggLoad(t, 4))
	if err != nil {
		t.Fatalf("transfer-free fleet should not need a priceable link: %v", err)
	}
	if st.Transfers != 0 {
		t.Errorf("all-both fleet moved %d transfers, want 0", st.Transfers)
	}
}

// TestDisaggConfigGuards walks the checks of the one Config.validate
// that roles and the Disagg section add. Each bad config must come
// back as an error from Simulate: without the role guards a prefill
// member of a monolithic fleet would hand off into a nil handoff state,
// and an autoscaled decode member would join no pool.
func TestDisaggConfigGuards(t *testing.T) {
	unified := hw.MI300A()
	unified.Name = "CustomUnified"
	unified.IC.BandwidthGBps = 0
	scale := func(p *hw.Platform, m *models.Config, role Role) *AutoscaleConfig {
		tmpl := disaggBase()
		tmpl.Platform = p
		if m != nil {
			tmpl.Model = m
		}
		return &AutoscaleConfig{Template: tmpl, Target: 1, Max: 4, Role: role}
	}
	cases := []struct {
		name   string
		mutate func(c *Config)
		want   string
	}{
		{"prefill member without Disagg", func(c *Config) { c.Disagg = nil }, "instance 0 has role prefill, which needs a Disagg section"},
		{"autoscale role without Disagg", func(c *Config) {
			c.Instances = members(hw.GH200(), 2, RoleBoth)
			c.Disagg = nil
			c.Autoscale = scale(hw.GH200(), nil, RoleDecode)
		}, "autoscale role decode needs a Disagg section"},
		{"no prefill-capable member", func(c *Config) { c.Instances = members(hw.GH200(), 2, RoleDecode) }, "no prefill-capable"},
		{"no decode-capable member", func(c *Config) { c.Instances = members(hw.GH200(), 2, RolePrefill) }, "no decode-capable"},
		{"nil model", func(c *Config) { c.Instances[1].Serve.Model = nil }, "instance 1 needs a model"},
		{"mixed models", func(c *Config) { c.Instances[2].Serve.Model = models.GPT2() }, "instance 2 serves gpt2"},
		{"template of another model", func(c *Config) { c.Autoscale = scale(hw.GH200(), models.GPT2(), RoleDecode) }, "autoscale template serves gpt2"},
		{"unpriceable autoscale template", func(c *Config) { c.Autoscale = scale(unified, nil, RoleDecode) }, "autoscale template platform \"CustomUnified\""},
		{"negative host hop", func(c *Config) { c.Disagg.Transfer.HostHopMultiplier = -1 }, "host-hop multiplier"},
		{"negative transfer bandwidth", func(c *Config) { c.Disagg.Transfer.BandwidthGBps = -1 }, "transfer bandwidth"},
	}
	for _, tc := range cases {
		cfg := disaggConfig()
		tc.mutate(&cfg)
		_, _, err := Simulate(cfg, disaggLoad(t, 4))
		if err == nil {
			t.Errorf("%s: Simulate accepted the config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A prefill-role autoscale template mints handoff sources, so an
	// all-"both" fleet scaled that way needs a priceable link too.
	cfg := disaggConfig()
	cfg.Instances = members(hw.GH200(), 2, RoleBoth)
	cfg.Autoscale = scale(unified, nil, RolePrefill)
	if _, _, err := Simulate(cfg, disaggLoad(t, 4)); err == nil || !strings.Contains(err.Error(), "CustomUnified") {
		t.Errorf("prefill-role template on an unpriceable platform: got %v", err)
	}
}

// TestSimulateLedger runs a small disaggregated fleet and checks the
// cross-pool ledger: every prefill completion is matched by exactly one
// decode completion (no drops here), TTFTs come only from the prefill
// pool, and nothing is lost.
func TestSimulateLedger(t *testing.T) {
	reqs := disaggLoad(t, 24)
	_, st, err := Simulate(disaggConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered != 24 || st.Routed != 24 || st.Rejected != 0 || st.Unroutable != 0 {
		t.Errorf("front door: offered %d rejected %d unroutable %d routed %d",
			st.Offered, st.Rejected, st.Unroutable, st.Routed)
	}
	if st.Completed != 24 {
		t.Errorf("completed %d of 24", st.Completed)
	}
	if st.TransferDrops != 0 || st.HandedOff != st.Resumed {
		t.Errorf("handoff ledger: %d handed off, %d resumed, %d dropped",
			st.HandedOff, st.Resumed, st.TransferDrops)
	}
	if st.HandedOff == 0 {
		t.Error("no handoffs: the prefill pool never shipped a cache")
	}
	if st.Transfers != st.HandedOff {
		t.Errorf("%d transfers for %d handoffs", st.Transfers, st.HandedOff)
	}
	if st.KVBytesMoved <= 0 || st.MeanTransfer <= 0 {
		t.Errorf("transfer economics empty: %g bytes, mean %v", st.KVBytesMoved, st.MeanTransfer)
	}
	if st.MeanTransferStall < st.MeanTransfer {
		t.Errorf("stall %v below wire time %v", st.MeanTransferStall, st.MeanTransfer)
	}
	for _, is := range st.Instances {
		switch is.Role {
		case "prefill":
			if is.Serve.Resumed != 0 {
				t.Errorf("%s: prefill instance resumed %d requests", is.Name, is.Serve.Resumed)
			}
			// Multi-token requests hand off; only outputLen==1 requests
			// may complete locally (this workload has none: Min=4).
			if is.Serve.Completed != 0 {
				t.Errorf("%s: prefill instance completed %d requests locally", is.Name, is.Serve.Completed)
			}
		case "decode":
			if is.Routed != 0 {
				t.Errorf("%s: front door routed %d fresh arrivals to a decode instance", is.Name, is.Routed)
			}
			if is.Serve.Completed != is.Resumed {
				t.Errorf("%s: completed %d of %d resumed", is.Name, is.Serve.Completed, is.Resumed)
			}
		}
	}
	if st.P50TTFT <= 0 || st.P50TPOT <= 0 || st.P50E2E <= 0 {
		t.Errorf("pooled percentiles empty: TTFT %v TPOT %v E2E %v", st.P50TTFT, st.P50TPOT, st.P50E2E)
	}
}

// TestSimulateDeterminism: same stream and config, byte-identical
// stats.
func TestSimulateDeterminism(t *testing.T) {
	_, a, err := Simulate(disaggConfig(), disaggLoad(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Simulate(disaggConfig(), disaggLoad(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("rerun diverged: P95 TTFT %v vs %v, horizon %v vs %v",
			a.P95TTFT, b.P95TTFT, a.Horizon, b.Horizon)
	}
}

// TestSimulateEvents checks the per-request disaggregated lifecycle
// order on the observer stream: routed → arrival@prefill → … →
// first-token@prefill → kv-transfer-start → kv-transfer-done →
// arrival@decode → … → completed@decode, with transfer starts and
// dones balanced.
func TestSimulateEvents(t *testing.T) {
	var events []serve.Event
	cfg := disaggConfig()
	cfg.Observer = func(e serve.Event) { events = append(events, e) }
	_, st, err := Simulate(cfg, disaggLoad(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	starts, dones := 0, 0
	perReq := make(map[int][]string)
	for _, e := range events {
		switch e.Type {
		case serve.EventKVTransferStart:
			starts++
			if !strings.Contains(e.Link, "→") {
				t.Errorf("transfer event without a link: %v", e)
			}
		case serve.EventKVTransferDone:
			dones++
		}
		perReq[e.RequestID] = append(perReq[e.RequestID], e.Type.String())
	}
	if starts != st.Transfers || dones != st.Transfers {
		t.Errorf("%d starts / %d dones for %d transfers", starts, dones, st.Transfers)
	}
	want := []string{"routed", "arrival", "admitted", "first-token",
		"kv-transfer-start", "kv-transfer-done", "arrival", "admitted", "completed"}
	seq := perReq[0]
	// Preemption-free runs follow the canonical order exactly.
	if st.Preemptions == 0 && !reflect.DeepEqual(seq, want) {
		t.Errorf("request 0 lifecycle = %v, want %v", seq, want)
	}
}

// TestSimulateBothRolesMatchCluster: a fleet of RoleBoth members is
// monolithic serving — with a Disagg section it must reproduce the
// monolithic run exactly (per-pool policies and the transfer model
// never engage), and each run returns only its own report.
func TestSimulateBothRolesMatchCluster(t *testing.T) {
	reqs := disaggLoad(t, 24)
	cfg := Config{
		Instances: append(members(hw.GH200(), 1, RoleBoth), members(hw.IntelH100(), 1, RoleBoth)...),
		Policy:    LeastQueue,
		TTFTSLO:   500 * sim.Millisecond,
	}
	cst, none, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cst == nil || none != nil {
		t.Fatalf("monolithic run returned stats %v and disaggregated stats %v, want only the former", cst != nil, none != nil)
	}
	cfg.Disagg = &Disaggregation{}
	mono, dst, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if mono != nil || dst == nil {
		t.Fatalf("disaggregated run returned stats %v and disaggregated stats %v, want only the latter", mono != nil, dst != nil)
	}
	if dst.HandedOff != 0 || dst.Transfers != 0 {
		t.Fatalf("RoleBoth fleet handed off %d / transferred %d", dst.HandedOff, dst.Transfers)
	}
	if dst.P95TTFT != cst.P95TTFT || dst.P95E2E != cst.P95E2E ||
		dst.Completed != cst.Completed || dst.Horizon != cst.Horizon ||
		dst.TokensPerSec != cst.TokensPerSec {
		t.Errorf("RoleBoth fleet diverged from cluster: TTFT %v vs %v, E2E %v vs %v, horizon %v vs %v",
			dst.P95TTFT, cst.P95TTFT, dst.P95E2E, cst.P95E2E, dst.Horizon, cst.Horizon)
	}
}

// TestTransferDropReported: a request whose lifetime KV fits the
// prefill pool but no decode instance must surface as a reported drop,
// keeping the ledger exact.
func TestTransferDropReported(t *testing.T) {
	small := hw.IntelH100()
	small.Name = "Tiny+H100"
	small.GPU.HBMGB = 4 // ~1.2 GB of KV budget after fp16 weights

	cfg := Config{
		Instances: append(members(hw.GH200(), 1, RolePrefill), members(small, 1, RoleDecode)...),
		Policy:    LeastQueue,
		Disagg:    &Disaggregation{DecodePolicy: LeastKV},
	}
	reqs := []serve.Request{
		{ID: 0, Arrival: 0, PromptLen: 256, OutputLen: 8},
		{ID: 1, Arrival: sim.Millisecond, PromptLen: 48000, OutputLen: 8}, // ~1.6 GB of KV
	}
	_, st, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.TransferDrops != 1 {
		t.Fatalf("transfer drops = %d, want 1 (stats: %+v)", st.TransferDrops, st)
	}
	if st.HandedOff != 2 || st.Resumed != 1 || st.Completed != 1 {
		t.Errorf("ledger: handed off %d, resumed %d, completed %d", st.HandedOff, st.Resumed, st.Completed)
	}
}
