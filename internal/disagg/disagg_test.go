package disagg

import (
	"reflect"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/cluster"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// testBase is a small, fast per-instance serving config.
func testBase() serve.Config {
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

// testWorkload is a deterministic chat stream with real output lengths.
func testWorkload(t *testing.T, n int) []serve.Request {
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

func testConfig() cluster.DisaggConfig {
	return cluster.DisaggConfig{
		Groups: []cluster.Group{
			{Platform: hw.GH200(), Count: 1, Role: cluster.RolePrefill},
			{Platform: hw.IntelH100(), Count: 2, Role: cluster.RoleDecode},
		},
		Base:          testBase(),
		PrefillPolicy: cluster.LeastQueue,
		DecodePolicy:  cluster.LeastKV,
		TTFTSLO:       500 * sim.Millisecond,
	}
}

// TestTransferTimeInterconnectOrdering pins the transfer model to the
// paper's asymmetry: a coupled→coupled handoff (NVLink-C2C, no host
// hop) must beat a mixed pair, which must beat a discrete→discrete
// PCIe transfer that store-and-forwards through both hosts.
func TestTransferTimeInterconnectOrdering(t *testing.T) {
	var tm cluster.TransferModel
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
		cluster.DefaultHostHopMultiplier*cluster.DefaultHostHopMultiplier*bytes/intel.IC.BandwidthGBps)
	if lc != wantLC {
		t.Errorf("discrete transfer = %v, want %v", lc, wantLC)
	}

	// The bandwidth override replaces the link rate but keeps the
	// endpoint topology (latency + hops).
	fat := cluster.TransferModel{BandwidthGBps: 900}
	if got, want := fat.Time(gh, gh, bytes), sim.FromNs(2*gh.IC.LatencyNs+bytes/900.0); got != want {
		t.Errorf("override transfer = %v, want %v", got, want)
	}
	// A unit multiplier erases the discrete penalty entirely.
	flat := cluster.TransferModel{HostHopMultiplier: 1}
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

	cfg := testConfig()
	cfg.Groups = []cluster.Group{
		{Platform: unified, Count: 1, Role: cluster.RolePrefill},
		{Platform: hw.IntelH100(), Count: 1, Role: cluster.RoleDecode},
	}
	_, err := cluster.SimulateDisagg(cfg, testWorkload(t, 4))
	if err == nil {
		t.Fatal("fleet with an unpriceable transfer endpoint should be rejected")
	}
	if !strings.Contains(err.Error(), "CustomUnified") || !strings.Contains(err.Error(), "bandwidth") {
		t.Errorf("error should name the platform and the missing bandwidth, got: %v", err)
	}

	// The override restores a finite price and the fleet simulates.
	cfg.Transfer.BandwidthGBps = 100
	st, err := cluster.SimulateDisagg(cfg, testWorkload(t, 4))
	if err != nil {
		t.Fatalf("override should make the fleet legal: %v", err)
	}
	if st.Transfers == 0 || st.MeanTransfer <= 0 {
		t.Errorf("overridden fleet should price transfers finitely, got %d transfers, mean %v",
			st.Transfers, st.MeanTransfer)
	}

	// An all-"both" fleet never hands a cache off — no cluster.RolePrefill
	// source, no transfers — so the unpriceable link is irrelevant and
	// the fleet stays legal without an override.
	cfg.Transfer.BandwidthGBps = 0
	cfg.Groups = []cluster.Group{
		{Platform: unified, Count: 1, Role: cluster.RoleBoth},
		{Platform: hw.IntelH100(), Count: 1, Role: cluster.RoleBoth},
	}
	st, err = cluster.SimulateDisagg(cfg, testWorkload(t, 4))
	if err != nil {
		t.Fatalf("transfer-free fleet should not need a priceable link: %v", err)
	}
	if st.Transfers != 0 {
		t.Errorf("all-both fleet moved %d transfers, want 0", st.Transfers)
	}
}

// TestSimulateLedger runs a small disaggregated fleet and checks the
// cross-pool ledger: every prefill completion is matched by exactly one
// decode completion (no drops here), TTFTs come only from the prefill
// pool, and nothing is lost.
func TestSimulateLedger(t *testing.T) {
	reqs := testWorkload(t, 24)
	st, err := cluster.SimulateDisagg(testConfig(), reqs)
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
	a, err := cluster.SimulateDisagg(testConfig(), testWorkload(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.SimulateDisagg(testConfig(), testWorkload(t, 24))
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
	cfg := testConfig()
	cfg.Observer = func(e serve.Event) { events = append(events, e) }
	st, err := cluster.SimulateDisagg(cfg, testWorkload(t, 12))
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

// TestSimulateBothRolesMatchCluster: a fleet of cluster.RoleBoth groups is
// monolithic serving — it must reproduce cluster.Simulate exactly
// (per-pool policies and the transfer model never engage).
func TestSimulateBothRolesMatchCluster(t *testing.T) {
	reqs := testWorkload(t, 24)
	dcfg := cluster.DisaggConfig{
		Groups: []cluster.Group{
			{Platform: hw.GH200(), Count: 1, Role: cluster.RoleBoth},
			{Platform: hw.IntelH100(), Count: 1, Role: cluster.RoleBoth},
		},
		Base:          testBase(),
		PrefillPolicy: cluster.LeastQueue,
		TTFTSLO:       500 * sim.Millisecond,
	}
	dst, err := cluster.SimulateDisagg(dcfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dst.HandedOff != 0 || dst.Transfers != 0 {
		t.Fatalf("cluster.RoleBoth fleet handed off %d / transferred %d", dst.HandedOff, dst.Transfers)
	}

	base := testBase()
	ccfg := cluster.Config{
		Instances: nil,
		Policy:    cluster.LeastQueue,
		TTFTSLO:   500 * sim.Millisecond,
	}
	for _, p := range []*hw.Platform{hw.GH200(), hw.IntelH100()} {
		icfg := base
		icfg.Platform = p
		ccfg.Instances = append(ccfg.Instances, icfg)
	}
	cst, err := cluster.Simulate(ccfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dst.P95TTFT != cst.P95TTFT || dst.P95E2E != cst.P95E2E ||
		dst.Completed != cst.Completed || dst.Horizon != cst.Horizon ||
		dst.TokensPerSec != cst.TokensPerSec {
		t.Errorf("cluster.RoleBoth fleet diverged from cluster: TTFT %v vs %v, E2E %v vs %v, horizon %v vs %v",
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

	cfg := cluster.DisaggConfig{
		Groups: []cluster.Group{
			{Platform: hw.GH200(), Count: 1, Role: cluster.RolePrefill},
			{Platform: small, Count: 1, Role: cluster.RoleDecode},
		},
		Base:          testBase(),
		PrefillPolicy: cluster.LeastQueue,
		DecodePolicy:  cluster.LeastKV,
	}
	reqs := []serve.Request{
		{ID: 0, Arrival: 0, PromptLen: 256, OutputLen: 8},
		{ID: 1, Arrival: sim.Millisecond, PromptLen: 48000, OutputLen: 8}, // ~1.6 GB of KV
	}
	st, err := cluster.SimulateDisagg(cfg, reqs)
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
