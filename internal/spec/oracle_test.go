package spec

import (
	"bytes"
	"strconv"
	"testing"
)

var freshBuckets = 1000

// freshBucket returns a latency bucket no other run in this process has
// used, so step-oracle entries keyed by it start cold even under -count.
func freshBucket() string {
	freshBuckets++
	return strconv.Itoa(freshBuckets)
}

// oracleFleetBase is a small heterogeneous fleet with the given latency
// bucket.
func oracleFleetBase(t *testing.T, bucket string) *Spec {
	t.Helper()
	s, err := Parse([]byte(`{
	  "model": "llama-3.2-1B",
	  "workload": {
	    "scenario": "chat",
	    "requests": 40,
	    "rate_per_sec": 50,
	    "seed": 11,
	    "prompt": {"mean": 256, "sigma": 0.5, "min": 32, "max": 512},
	    "output": {"mean": 8, "sigma": 0.4, "min": 4, "max": 16}
	  },
	  "serve": {"max_batch": 8, "seq": 256, "latency_bucket": ` + bucket + `, "ttft_slo_ms": 500},
	  "fleet": {
	    "groups": [{"platform": "GH200", "count": 2}, {"platform": "Intel+H100", "count": 2}],
	    "router": "least-queue"
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFleetSweepSharedOracleDeterminism: the parallel run fills the
// shared step oracle from cold with several workers at once; the
// serial run then replays from the warm table. Both must be
// byte-identical, so fill order cannot leak into results.
func TestFleetSweepSharedOracleDeterminism(t *testing.T) {
	s := oracleFleetBase(t, freshBucket())
	s.Sweep = &SweepSpec{Field: "workload.rate_per_sec", Values: []any{10.0, 40.0, 80.0, 160.0}}

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
		t.Error("parallel fleet sweep report is not byte-identical to the one-worker run")
	}
	for i, pt := range parallel.Sweep {
		if pt.Report.Cluster == nil || pt.Report.Cluster.Completed == 0 {
			t.Fatalf("point %d completed no requests", i)
		}
	}
}

// TestProfileOracleMisses: the profile counts the engine runs a call
// performed; a rerun of the same spec finds every key in the shared
// table and performs none.
func TestProfileOracleMisses(t *testing.T) {
	bucket := freshBucket()
	cold, err := Simulate(oracleFleetBase(t, bucket), WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Profile.OracleMisses <= 0 {
		t.Errorf("cold run oracle_misses = %d, want > 0", cold.Profile.OracleMisses)
	}
	warm, err := Simulate(oracleFleetBase(t, bucket), WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Profile.OracleMisses != 0 {
		t.Errorf("warm rerun oracle_misses = %d, want 0: instances share one oracle", warm.Profile.OracleMisses)
	}
	cold.Profile, warm.Profile = nil, nil
	cj, _ := ReportJSON(cold)
	wj, _ := ReportJSON(warm)
	if !bytes.Equal(cj, wj) {
		t.Error("a warm shared oracle changed the simulated report")
	}
}
