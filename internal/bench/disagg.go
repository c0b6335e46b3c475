package bench

import (
	"fmt"
	"reflect"

	"github.com/skipsim/skip/internal/cluster"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/spec"
)

func init() {
	register(&Experiment{
		ID:    "ext10-disagg",
		Title: "Prefill/decode disaggregation study: interconnect-priced KV handoff vs monolithic serving, with the bandwidth crossover",
		Paper: "§V — prefill is compute-bound, decode memory-bandwidth-bound; coupled architectures (NVLink-C2C) change the cost of moving KV state, which decides whether a DistServe-style phase split pays",
		Run:   runExtDisagg,
	})
}

// disaggWorkload builds the study's request stream section for one
// scenario. Rates are tuned so the 4-node fleet operates loaded but not
// collapsing.
func disaggWorkload(scenario string) *spec.WorkloadSpec {
	w := &spec.WorkloadSpec{Scenario: scenario, Requests: 96, RatePerSec: 32, Seed: 19}
	if scenario == "summarize" {
		// Long-context prefill dominates: offer fewer, heavier requests.
		w.Requests, w.RatePerSec = 48, 8
	}
	return w
}

// disaggStudySpec assembles one experiment document: groups + an
// optional disaggregation section over the shared serving base.
func disaggStudySpec(scenario string, groups []spec.FleetGroupSpec, d *spec.DisaggregationSpec) *spec.Spec {
	return &spec.Spec{
		Model:    "llama-3.2-1B",
		Workload: disaggWorkload(scenario),
		Serve: &spec.ServeSpec{
			Policy:        "continuous",
			MaxBatch:      32,
			Seq:           512,
			LatencyBucket: 256,
			TTFTSLOMs:     500,
		},
		Fleet: &spec.FleetSpec{Groups: groups, Disaggregation: d},
	}
}

// The three 4-node fleet shapes under comparison: the monolithic mixed
// fleet, and the two possible phase assignments of the same hardware.
func monolithicGroups() []spec.FleetGroupSpec {
	return []spec.FleetGroupSpec{
		{Platform: hw.IntelH100Name, Count: 2},
		{Platform: hw.GH200Name, Count: 2},
	}
}

func prefillDiscreteGroups() []spec.FleetGroupSpec {
	return []spec.FleetGroupSpec{
		{Platform: hw.IntelH100Name, Count: 2, Role: "prefill"},
		{Platform: hw.GH200Name, Count: 2, Role: "decode"},
	}
}

func prefillCoupledGroups() []spec.FleetGroupSpec {
	return []spec.FleetGroupSpec{
		{Platform: hw.GH200Name, Count: 2, Role: "prefill"},
		{Platform: hw.IntelH100Name, Count: 2, Role: "decode"},
	}
}

func runExtDisagg() (*Result, error) {
	res := &Result{ID: "ext10-disagg", Title: "Extension 10"}

	// Part 1: monolithic vs both disaggregated phase assignments, per
	// workload, at native interconnect pricing.
	tbl := Table{
		Title: "Monolithic vs disaggregated serving, 2×Intel+H100 + 2×GH200 (Llama-3.2-1B, native interconnects)",
		Columns: []string{"Workload", "Fleet", "P95 TTFT (ms)", "P50 TPOT (ms)", "P95 E2E (ms)",
			"goodput (req/s)", "transfers", "wire mean (ms)"},
	}
	monoStats := map[string]*cluster.Stats{}
	disaggStats := map[string]*cluster.DisaggStats{} // scenario/config → stats
	for _, scenario := range []string{"chat", "agentic", "summarize"} {
		monoRep, err := spec.Simulate(disaggStudySpec(scenario, monolithicGroups(), nil))
		if err != nil {
			return nil, err
		}
		mc := monoRep.Cluster
		monoStats[scenario] = mc
		tbl.Rows = append(tbl.Rows, []string{
			scenario, "monolithic (least-queue)",
			ms(mc.P95TTFT.Milliseconds()), ms(mc.P50TPOT.Milliseconds()), ms(mc.P95E2E.Milliseconds()),
			f1(mc.Goodput), "0", "-",
		})
		for _, split := range []struct {
			label  string
			groups []spec.FleetGroupSpec
		}{
			{"prefill=Intel+H100", prefillDiscreteGroups()},
			{"prefill=GH200", prefillCoupledGroups()},
		} {
			label, groups := split.label, split.groups
			rep, err := spec.Simulate(disaggStudySpec(scenario, groups, &spec.DisaggregationSpec{}))
			if err != nil {
				return nil, err
			}
			st := rep.Disagg
			disaggStats[scenario+"/"+label] = st
			tbl.Rows = append(tbl.Rows, []string{
				scenario, label,
				ms(st.P95TTFT.Milliseconds()), ms(st.P50TPOT.Milliseconds()), ms(st.P95E2E.Milliseconds()),
				f1(st.Goodput), fmt.Sprintf("%d", st.Transfers), ms(st.MeanTransfer.Milliseconds()),
			})
		}
	}
	tbl.Notes = append(tbl.Notes,
		"prefill=X names the pool assignment: X runs prompt processing, the other platform decodes; KV caches cross pools over the interconnect-priced transfer model",
		"the winning assignment inverts the naive bandwidth intuition: decode belongs on the discrete Intel nodes, not the high-HBM GH200s, because eager-mode decode is dispatch-bound (§V-B — Grace's weak single-thread launches gate the many small decode kernels) while big-batch prefill GEMMs amortize GH200's launch cost",
		"the mixed-pair transfer pays one host hop (Intel side store-and-forwards over PCIe); goodput counts completions whose TTFT met the 500ms SLO")
	res.Tables = append(res.Tables, tbl)

	// Part 2: the same split on homogeneous fleets — what the handoff
	// costs when both endpoints are coupled (NVLink-C2C) vs both
	// discrete (PCIe, two host hops).
	homTbl := Table{
		Title:   "Homogeneous 4-node fleets, chat workload: what the KV handoff costs per platform",
		Columns: []string{"Fleet", "Config", "P95 TTFT (ms)", "P95 E2E (ms)", "goodput (req/s)", "wire mean (ms)", "stall mean (ms)"},
	}
	homo := map[string]*cluster.DisaggStats{}
	for _, platform := range []string{hw.GH200Name, hw.IntelH100Name} {
		monoRep, err := spec.Simulate(disaggStudySpec("chat",
			[]spec.FleetGroupSpec{{Platform: platform, Count: 4}}, nil))
		if err != nil {
			return nil, err
		}
		mc := monoRep.Cluster
		homTbl.Rows = append(homTbl.Rows, []string{
			platform + ":4", "monolithic",
			ms(mc.P95TTFT.Milliseconds()), ms(mc.P95E2E.Milliseconds()), f1(mc.Goodput), "-", "-",
		})
		rep, err := spec.Simulate(disaggStudySpec("chat",
			[]spec.FleetGroupSpec{
				{Platform: platform, Count: 2, Role: "prefill"},
				{Platform: platform, Count: 2, Role: "decode"},
			}, &spec.DisaggregationSpec{}))
		if err != nil {
			return nil, err
		}
		st := rep.Disagg
		homo[platform] = st
		homTbl.Rows = append(homTbl.Rows, []string{
			platform + ":4", "2/prefill + 2/decode",
			ms(st.P95TTFT.Milliseconds()), ms(st.P95E2E.Milliseconds()), f1(st.Goodput),
			ms(st.MeanTransfer.Milliseconds()), ms(st.MeanTransferStall.Milliseconds()),
		})
	}
	homTbl.Notes = append(homTbl.Notes,
		"GH200↔GH200 handoffs ride NVLink-C2C at 450 GB/s with no host hop; Intel+H100 pairs are gated by PCIe Gen5 and pay the store-and-forward multiplier at both endpoints",
		"this isolates the paper's coupling asymmetry: identical schedulers and workload, only the interconnect pricing differs between rows")
	res.Tables = append(res.Tables, homTbl)

	// Part 3: sweep the transfer-link bandwidth to locate the crossover
	// where disaggregation starts beating monolithic serving on P95 E2E
	// (chat, the winning prefill=GH200 assignment): a starved link
	// serializes every handoff and erases the phase-split win; the
	// question is how much interconnect buys it back. The loop is the
	// spec's sweep section: one document, one Simulate call, the points
	// executed concurrently and returned as an ordered series.
	swTbl := Table{
		Title:   "KV-transfer bandwidth sweep, chat workload, prefill=GH200 + decode=Intel+H100 (host hops disabled to isolate the link)",
		Columns: []string{"link GB/s", "P95 TTFT (ms)", "P50 TPOT (ms)", "P95 E2E (ms)", "goodput (req/s)", "wire mean (ms)", "stall mean (ms)"},
	}
	monoChat := monoStats["chat"]
	sweep := []float64{0.01, 0.05, 0.25, 1, 64, 450}
	swSpec := disaggStudySpec("chat", prefillCoupledGroups(), &spec.DisaggregationSpec{HostHopMultiplier: 1})
	values := make([]any, len(sweep))
	for i, bw := range sweep {
		values[i] = bw
	}
	swSpec.Sweep = &spec.SweepSpec{Field: "fleet.disaggregation.bandwidth_gbps", Values: values}
	swRep, err := spec.Simulate(swSpec)
	if err != nil {
		return nil, err
	}
	var crossover float64 = -1
	var sweepStats []*cluster.DisaggStats
	for i, pt := range swRep.Sweep {
		bw := sweep[i]
		st := pt.Report.Disagg
		sweepStats = append(sweepStats, st)
		if crossover < 0 && st.P95E2E <= monoChat.P95E2E {
			crossover = bw
		}
		swTbl.Rows = append(swTbl.Rows, []string{
			fmt.Sprintf("%g", bw),
			ms(st.P95TTFT.Milliseconds()), ms(st.P50TPOT.Milliseconds()), ms(st.P95E2E.Milliseconds()),
			f1(st.Goodput), ms(st.MeanTransfer.Milliseconds()), ms(st.MeanTransferStall.Milliseconds()),
		})
	}
	swTbl.Rows = append(swTbl.Rows, []string{
		"monolithic", ms(monoChat.P95TTFT.Milliseconds()), ms(monoChat.P50TPOT.Milliseconds()),
		ms(monoChat.P95E2E.Milliseconds()), f1(monoChat.Goodput), "-", "-",
	})
	if crossover >= 0 {
		swTbl.Notes = append(swTbl.Notes, fmt.Sprintf(
			"crossover: disaggregation beats monolithic P95 E2E from %g GB/s of link bandwidth upward — below it serialized KV handoffs erase the phase-split win; PCIe Gen5 (64 GB/s) and NVLink-C2C (450 GB/s) both sit comfortably past it for this workload's ~10 MB caches", crossover))
	} else {
		swTbl.Notes = append(swTbl.Notes,
			"no crossover within the sweep: the handoff never recovers the monolithic P95 E2E at these rates")
	}
	res.Tables = append(res.Tables, swTbl)

	// Determinism: the acceptance criterion — same spec, byte-identical
	// disaggregated stats.
	againRep, err := spec.Simulate(disaggStudySpec("chat", prefillDiscreteGroups(), &spec.DisaggregationSpec{}))
	if err != nil {
		return nil, err
	}

	chatSplit := disaggStats["chat/prefill=Intel+H100"]
	ledgerOK := true
	//skiplint:allow maprange — all-true ledger check: only ever clears one flag, so the result is order-independent
	for _, st := range disaggStats {
		if st.Offered != st.Rejected+st.Unroutable+st.Routed ||
			st.HandedOff != st.TransferDrops+st.Resumed {
			ledgerOK = false
		}
	}
	slowest, fastest := sweepStats[0], sweepStats[len(sweepStats)-1]

	res.Checks = append(res.Checks,
		checkBool("same spec reproduces byte-identical disaggregated stats",
			reflect.DeepEqual(againRep.Disagg, chatSplit),
			fmt.Sprintf("rerun P95 E2E %v vs %v", againRep.Disagg.P95E2E, chatSplit.P95E2E),
			"shared-clock simulation with transfer links is deterministic"),
		checkBool("every prefill completion matches one decode completion or a reported drop",
			ledgerOK,
			fmt.Sprintf("chat split: %d handed off = %d resumed + %d dropped",
				chatSplit.HandedOff, chatSplit.Resumed, chatSplit.TransferDrops),
			"the cross-pool ledger reconciles exactly for every config"),
		checkBool("coupled NVLink-C2C handoff is cheaper than the discrete PCIe handoff",
			homo[hw.GH200Name].MeanTransfer < homo[hw.IntelH100Name].MeanTransfer,
			fmt.Sprintf("GH200 wire mean %v vs Intel+H100 %v",
				homo[hw.GH200Name].MeanTransfer, homo[hw.IntelH100Name].MeanTransfer),
			"the interconnect model prices the paper's coupling asymmetry into the handoff"),
		checkBool("starving the transfer link degrades E2E monotonically toward the fat-link result",
			slowest.P95E2E > fastest.P95E2E && slowest.MeanTransferStall > fastest.MeanTransferStall,
			fmt.Sprintf("P95 E2E %v at %g GB/s vs %v at %g GB/s",
				slowest.P95E2E, sweep[0], fastest.P95E2E, sweep[len(sweep)-1]),
			"the crossover sweep spans a regime where the link visibly gates serving"),
		checkBool("the monolithic-vs-disaggregated crossover sits inside the sweep",
			crossover > sweep[0] && sweepStats[0].P95E2E > monoChat.P95E2E,
			fmt.Sprintf("disaggregation loses at %g GB/s (P95 E2E %v vs monolithic %v) and wins from %g GB/s",
				sweep[0], sweepStats[0].P95E2E, monoChat.P95E2E, crossover),
			"the phase split pays exactly when the interconnect can carry the KV handoff"),
		checkBool("disaggregation isolates prefill from decode interference on TTFT",
			chatSplit.P95TTFT < monoChat.P95TTFT,
			fmt.Sprintf("split P95 TTFT %v vs monolithic %v", chatSplit.P95TTFT, monoChat.P95TTFT),
			"a dedicated prefill pool answers first tokens without queueing behind running decodes"),
	)
	return res, nil
}
