package spec

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/serve"
)

// cachedFleetBase is a two-instance fleet serving multi-turn agentic
// sessions through a deliberately small prefix cache — every cache
// mechanism (hit, miss, eviction, host spill, restore credit) is live.
func cachedFleetBase(t *testing.T) *Spec {
	t.Helper()
	s, err := Parse([]byte(`{
	  "model": "llama-3.2-1B",
	  "workload": {
	    "scenario": "agentic",
	    "requests": 48,
	    "rate_per_sec": 8,
	    "turns": 8,
	    "seed": 7
	  },
	  "serve": {
	    "max_batch": 4,
	    "seq": 512,
	    "latency_bucket": 256,
	    "ttft_slo_ms": 500
	  },
	  "fleet": {
	    "groups": [{"platform": "GH200", "count": 2}],
	    "router": "prefix-affinity",
	    "kv_cache": {
	      "block_tokens": 32,
	      "device_blocks": 128,
	      "host_spill_blocks": 1024
	    }
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// blockEventStream runs the spec and returns the serialized stream of
// block-level cache events, in emission order.
func blockEventStream(t *testing.T, s *Spec) []string {
	t.Helper()
	var lines []string
	rep, err := Simulate(s, WithObserver(func(e serve.Event) {
		switch e.Type {
		case serve.EventBlockHit, serve.EventBlockEvict, serve.EventBlockRestore:
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(b))
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cluster.KVCache == nil {
		t.Fatal("cached spec produced no kv-cache report section")
	}
	return lines
}

// TestKVCacheEventStreamDeterministic: two runs of the same seeded spec
// must emit byte-identical block-event streams — same events, same
// order, same sequence numbers. The cache keeps no wall-clock or
// map-iteration state, so nothing may diverge.
func TestKVCacheEventStreamDeterministic(t *testing.T) {
	first := blockEventStream(t, cachedFleetBase(t))
	if len(first) == 0 {
		t.Fatal("cached agentic spec emitted no block events; the determinism check needs a live cache")
	}
	var hits, evicts bool
	for _, l := range first {
		if strings.Contains(l, `"block-hit"`) {
			hits = true
		}
		if strings.Contains(l, `"block-evict"`) {
			evicts = true
		}
	}
	if !hits || !evicts {
		t.Fatalf("block stream exercised hits=%v evicts=%v; the fixture must drive both", hits, evicts)
	}
	second := blockEventStream(t, cachedFleetBase(t))
	if len(first) != len(second) {
		t.Fatalf("rerun emitted %d block events, first run %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("block event %d diverged:\n  first:  %s\n  second: %s", i, first[i], second[i])
		}
	}
}

// TestKVCacheSweepParallelDeterminism: sweeping the device-tier size on
// a multi-worker pool must be byte-identical to the one-worker run.
// Under -race this also proves each sweep point owns its cache state.
func TestKVCacheSweepParallelDeterminism(t *testing.T) {
	s := cachedFleetBase(t)
	s.Sweep = &SweepSpec{Field: "fleet.kv_cache.device_blocks", Values: []any{64.0, 128.0, 256.0, 1024.0}}

	parallel, err := Simulate(s, WithSweepWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Simulate(s, WithSweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pj, err := ReportJSON(parallel)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := ReportJSON(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, sj) {
		t.Error("parallel kv_cache sweep report is not byte-identical to the one-worker run")
	}
	for i, point := range parallel.Sweep {
		if point.Report.Cluster.KVCache == nil {
			t.Fatalf("sweep point %d (device_blocks=%v) lost its kv-cache section", i, point.Value)
		}
		if err := point.Report.Cluster.KVCache.Reconcile(); err != nil {
			t.Errorf("sweep point %d: %v", i, err)
		}
	}
}

// TestKVCacheLedgerReconciles: the aggregate and per-instance ledgers
// of a cached run must balance exactly, and the cache must have done
// real work on this fixture.
func TestKVCacheLedgerReconciles(t *testing.T) {
	rep, err := Simulate(cachedFleetBase(t))
	if err != nil {
		t.Fatal(err)
	}
	k := rep.Cluster.KVCache
	if err := k.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if k.Lookups == 0 || k.Hits == 0 || k.Evictions == 0 {
		t.Fatalf("fixture under-exercised the cache: %+v", *k)
	}
	for _, is := range rep.Cluster.Instances {
		if err := is.Serve.KVCache.Reconcile(); err != nil {
			t.Errorf("instance %s: %v", is.Name, err)
		}
	}
}

// TestKVCacheSpecValidation walks the error paths of the fleet.kv_cache
// section.
func TestKVCacheSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string
	}{
		{
			name: "missing device_blocks",
			spec: `{"kv_cache": {"block_tokens": 32}}`,
			want: "fleet.kv_cache.device_blocks",
		},
		{
			name: "negative device_blocks",
			spec: `{"kv_cache": {"device_blocks": -4}}`,
			want: "fleet.kv_cache.device_blocks",
		},
		{
			name: "negative block_tokens",
			spec: `{"kv_cache": {"block_tokens": -1, "device_blocks": 64}}`,
			want: "fleet.kv_cache.block_tokens",
		},
		{
			name: "negative host_spill_blocks",
			spec: `{"kv_cache": {"device_blocks": 64, "host_spill_blocks": -1}}`,
			want: "fleet.kv_cache.host_spill_blocks",
		},
		{
			name: "unknown policy",
			spec: `{"kv_cache": {"device_blocks": 64, "policy": "clock"}}`,
			want: "fleet.kv_cache.policy",
		},
		{
			name: "unknown field",
			spec: `{"kv_cache": {"device_blocks": 64, "host_blocks": 9}}`,
			want: "host_blocks",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := `{
			  "model": "llama-3.2-1B",
			  "workload": {"scenario": "chat", "requests": 4, "rate_per_sec": 10, "seed": 1},
			  "serve": {"max_batch": 4, "seq": 256, "latency_bucket": 256, "ttft_slo_ms": 500},
			  "fleet": ` + strings.Replace(tc.spec, "{", `{"groups": [{"platform": "GH200", "count": 1}], `, 1) + `
			}`
			s, err := Parse([]byte(doc))
			if err == nil {
				err = s.Validate()
			}
			if err == nil {
				t.Fatalf("spec with %s validated", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestDisaggPrefixCacheReconciles runs the shipped cached,
// disaggregated spec. Its decode instances promote host-tier blocks
// for handed-off requests, which the ledger counts as hits, so some
// instance evicts more blocks than it missed and restored: the run
// must still reconcile, per instance and pooled.
func TestDisaggPrefixCacheReconciles(t *testing.T) {
	s, err := Load(filepath.Join("..", "..", "examples", "specs", "disagg_prefix_cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Disagg
	if st == nil || st.KVCache == nil {
		t.Fatal("no disaggregated report with a cache ledger")
	}
	if err := st.KVCache.Reconcile(); err != nil {
		t.Fatalf("pooled: %v", err)
	}
	promoting := false
	for _, is := range st.Instances {
		k := is.Serve.KVCache
		if err := k.Reconcile(); err != nil {
			t.Fatalf("%s: %v", is.Name, err)
		}
		promoting = promoting || k.Evictions > k.Misses+k.Restored
	}
	if !promoting {
		t.Error("no instance evicted past misses + restored: the spec no longer exercises transferred promotions")
	}
}
