package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/skipsim/skip/internal/bench"
	"github.com/skipsim/skip/internal/cluster"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/spec"
)

// recordedDigests pins each workload's result at its spec's own seeds
// and full scale: the SHA-256 of the report's JSON for fleet workloads,
// and of the artifacts' tables plus name-sorted checks for "paper".
// Recorded on linux/amd64. A replay whose digest differs has failed:
// the simulator changed what it reports, not just how fast.
var recordedDigests = map[string]string{
	"chat8":         "ebbe7f96d377d1ccf73d43c5e51e2f762eb8266349dad4c05af7815aad13701e",
	"chat80":        "2d9233b7b8520f815ca33a5271838f104822ec754045b2256f41914fbfc0af3e",
	"agentic_cache": "1d337b71de3b799e680f8562702df1760983465cccf8ceae527058781ace328d",
	"disagg_chaos":  "49a87a1ea84535c979fb748b3a2a54fce7955a4544424b5d4fd06f288824dc53",
	"paper":         "92de26e485649521b1b4742c8c7e82cb587ee28602d3201c176c57fddf077131",
}

// outcome is what one replay produced.
type outcome struct {
	report *spec.Report
	paper  []*bench.Result
}

// verify checks the outcome's own invariants and returns its digest.
func (o *outcome) verify() (string, error) {
	if o.report == nil {
		return paperDigest(o.paper)
	}
	if err := checkLedgers(o.report); err != nil {
		return "", err
	}
	// The compact encoding of the document spec.ReportJSON indents:
	// the same content at a fifth of the encoding time.
	data, err := json.Marshal(o.report)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkLedgers reconciles a fleet report's request, handoff, churn and
// prefix-cache ledgers.
func checkLedgers(r *spec.Report) error {
	var (
		offered, rejected, unroutable, routed int
		completed, abandoned, transferDrops   int
		chaos                                 *cluster.ChaosStats
		kv                                    *serve.KVCacheStats
	)
	switch {
	case r.Cluster != nil:
		st := r.Cluster
		offered, rejected, unroutable, routed = st.Offered, st.Rejected, st.Unroutable, st.Routed
		completed, abandoned = st.Completed, st.Abandoned
		chaos, kv = st.Chaos, st.KVCache
	case r.Disagg != nil:
		st := r.Disagg
		offered, rejected, unroutable, routed = st.Offered, st.Rejected, st.Unroutable, st.Routed
		completed, abandoned, transferDrops = st.Completed, st.Abandoned, st.TransferDrops
		chaos, kv = st.Chaos, st.KVCache
		if st.HandedOff != st.Resumed+st.TransferDrops {
			return fmt.Errorf("handoff ledger: handed off %d != resumed %d + dropped %d",
				st.HandedOff, st.Resumed, st.TransferDrops)
		}
	default:
		return fmt.Errorf("report kind %v is not a fleet", r.Kind)
	}
	if offered != r.Offered {
		return fmt.Errorf("request ledger: fleet offered %d, workload offered %d", offered, r.Offered)
	}
	if offered != rejected+unroutable+routed {
		return fmt.Errorf("request ledger: offered %d != rejected %d + unroutable %d + routed %d",
			offered, rejected, unroutable, routed)
	}
	dropped := 0
	if chaos != nil {
		dropped = chaos.Dropped
		if chaos.Killed != chaos.Requeued+chaos.Dropped {
			return fmt.Errorf("churn ledger: killed %d != requeued %d + dropped %d",
				chaos.Killed, chaos.Requeued, chaos.Dropped)
		}
	}
	if routed != completed+abandoned+transferDrops+dropped {
		return fmt.Errorf("request ledger: routed %d != completed %d + abandoned %d + transfer drops %d + chaos drops %d",
			routed, completed, abandoned, transferDrops, dropped)
	}
	return kv.Reconcile()
}

// paperDigest fails on any failed paper check and hashes every
// artifact's tables and checks. Checks are hashed sorted by name
// because fig5 appends them in map order, which varies between
// processes.
func paperDigest(results []*bench.Result) (string, error) {
	h := sha256.New()
	var failed []string
	for _, r := range results {
		checks := append([]bench.Check(nil), r.Checks...)
		sort.SliceStable(checks, func(i, j int) bool { return checks[i].Name < checks[j].Name })
		for _, c := range checks {
			if !c.Pass {
				failed = append(failed, fmt.Sprintf("%s: %s (got %s, want %s)", r.ID, c.Name, c.Got, c.Want))
			}
		}
		data, err := json.Marshal(struct {
			ID     string
			Tables []bench.Table
			Checks []bench.Check
		}{r.ID, r.Tables, checks})
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	if len(failed) > 0 {
		return "", fmt.Errorf("paper checks failed: %s", strings.Join(failed, "; "))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
