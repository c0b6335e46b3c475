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
		ID:    "ext9-cluster",
		Title: "Heterogeneous fleet routing study: 2×GH200 + 2×Intel+H100 behind pluggable routers under mixed traffic (Llama-3.2-1B)",
		Paper: "§V — coupled platforms win BS=1 TTFT, loosely-coupled large-batch decode throughput; a fleet router can exploit the regime split the paper characterizes per-node",
		Run:   runExtCluster,
	})
}

// clusterStudySpec is the heterogeneous fleet study as one declarative
// spec: two coupled and two loosely-coupled instances serving the same
// model under a production-style mixed stream (60% chat, 25% agentic
// single turns, 15% long-context summarization).
func clusterStudySpec(router string) *spec.Spec {
	return &spec.Spec{
		Model: "llama-3.2-1B",
		Workload: &spec.WorkloadSpec{
			Scenario:   "mixed",
			Requests:   120,
			RatePerSec: 40,
			Seed:       17,
		},
		Serve: &spec.ServeSpec{
			Policy:        "continuous",
			MaxBatch:      32,
			Seq:           512,
			LatencyBucket: 256,
			TTFTSLOMs:     500,
		},
		Fleet: &spec.FleetSpec{
			Groups: []spec.FleetGroupSpec{
				{Platform: hw.GH200Name, Count: 2},
				{Platform: hw.IntelH100Name, Count: 2},
			},
			Router: router,
		},
	}
}

// agenticStudySpec swaps the workload for 4-turn agentic trajectories,
// where session affinity pins whole trajectories to the instance that
// served turn one.
func agenticStudySpec(router string) *spec.Spec {
	s := clusterStudySpec(router)
	s.Workload = &spec.WorkloadSpec{
		Scenario:   "agentic",
		Requests:   96,
		RatePerSec: 32,
		Seed:       23,
		Turns:      4,
	}
	return s
}

func runExtCluster() (*Result, error) {
	res := &Result{ID: "ext9-cluster", Title: "Extension 9"}

	tbl := Table{
		Title: "Fleet-level latency and goodput by routing policy (2×GH200 + 2×Intel+H100, mixed workload, 40 req/s Poisson)",
		Columns: []string{"Router", "coupled/loose split", "P50 TTFT (ms)", "P99 TTFT (ms)",
			"P95 E2E (ms)", "tok/s", "goodput (req/s)", "imbalance"},
	}
	byPolicy := map[cluster.Policy]*cluster.Stats{}
	for _, policy := range cluster.Policies() {
		rep, err := spec.Simulate(clusterStudySpec(policy.String()))
		if err != nil {
			return nil, err
		}
		st := rep.Cluster
		byPolicy[policy] = st
		coupledRouted, looseRouted := 0, 0
		for _, is := range st.Instances {
			if is.Platform == hw.GH200Name {
				coupledRouted += is.Routed
			} else {
				looseRouted += is.Routed
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			policy.String(), fmt.Sprintf("%d/%d", coupledRouted, looseRouted),
			ms(st.P50TTFT.Milliseconds()), ms(st.P99TTFT.Milliseconds()),
			ms(st.P95E2E.Milliseconds()), f1(st.TokensPerSec), f1(st.Goodput),
			fmt.Sprintf("%.3f", st.LoadImbalance),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"the platform-aware router sends prompts ≤512 tokens to coupled (GH200) instances and long-context work to the discrete nodes",
		"the coupled-for-latency intuition inverts under load: eager-mode GH200 serving is dispatch-bound (§V-B — Grace's weak single-thread launches), so concentrating short interactive traffic there saturates the coupled nodes while the discrete H100s idle",
		"session-affinity matches least-queue here because the mixed stream carries no session IDs (see the agentic table)",
		"imbalance is the coefficient of variation of per-instance routed counts",
		"goodput counts completed requests whose TTFT met the 500ms fleet SLO")
	res.Tables = append(res.Tables, tbl)

	// Session affinity needs sessions: the agentic trajectory stream.
	agTbl := Table{
		Title:   "Session-affinity routing on agentic 4-turn trajectories (same fleet, 32 req/s)",
		Columns: []string{"Router", "P50 TTFT (ms)", "P99 TTFT (ms)", "imbalance", "per-instance routed"},
	}
	agStats := map[cluster.Policy]*cluster.Stats{}
	for _, policy := range []cluster.Policy{cluster.LeastQueue, cluster.SessionAffinity} {
		rep, err := spec.Simulate(agenticStudySpec(policy.String()))
		if err != nil {
			return nil, err
		}
		st := rep.Cluster
		agStats[policy] = st
		split := ""
		for i, is := range st.Instances {
			if i > 0 {
				split += "/"
			}
			split += fmt.Sprintf("%d", is.Routed)
		}
		agTbl.Rows = append(agTbl.Rows, []string{
			policy.String(), ms(st.P50TTFT.Milliseconds()), ms(st.P99TTFT.Milliseconds()),
			fmt.Sprintf("%.3f", st.LoadImbalance), split,
		})
	}
	agTbl.Notes = append(agTbl.Notes,
		"affinity models KV-reuse locality (later turns return to the instance holding the session's context); the simulator does not yet credit the reuse, so its gain here is placement stability, not latency")
	res.Tables = append(res.Tables, agTbl)

	// Counterfactual routing: re-run the study under the platform-aware
	// router with decision records on, replaying the other policies over
	// each recorded load snapshot. Disagreement rates quantify how much
	// of the table above is placement policy rather than luck.
	cfSpec := clusterStudySpec(cluster.PlatformAware.String())
	cfSpec.Observability = &spec.ObservabilitySpec{CounterfactualK: 3}
	cfRep, err := spec.Simulate(cfSpec)
	if err != nil {
		return nil, err
	}
	routing := cfRep.Cluster.Routing
	cfTbl := Table{
		Title:   fmt.Sprintf("Counterfactual routing replay (%d picks recorded under %s)", routing.Picks, routing.Policy),
		Columns: []string{"Replayed policy", "agreed", "differed", "disagreement"},
	}
	for _, cf := range routing.Counterfactuals {
		cfTbl.Rows = append(cfTbl.Rows, []string{
			cf.Policy, fmt.Sprintf("%d", cf.Agreed), fmt.Sprintf("%d", cf.Differed),
			fmt.Sprintf("%.0f%%", 100*float64(cf.Differed)/float64(cf.Picks)),
		})
	}
	cfTbl.Notes = append(cfTbl.Notes,
		"each replayed policy scores the exact load snapshot the live router saw, so disagreement isolates the policy from the stream",
		"the decision records themselves ride in the report (Report.Cluster.Routing.Decisions) for span-level audits")
	res.Tables = append(res.Tables, cfTbl)

	// Admission control at the same offered load: a token bucket below
	// the offered rate sheds the burst tail at the front door.
	admitted := clusterStudySpec(cluster.LeastQueue.String())
	admitted.Fleet.AdmitRatePerSec = 25
	admitted.Fleet.AdmitBurst = 8
	shedRep, err := spec.Simulate(admitted)
	if err != nil {
		return nil, err
	}
	shed := shedRep.Cluster
	admTbl := Table{
		Title:   "Token-bucket admission control (least-queue router, 25 req/s sustained, depth 8)",
		Columns: []string{"Config", "offered", "rejected", "routed", "P99 TTFT (ms)", "goodput (req/s)"},
	}
	open := byPolicy[cluster.LeastQueue]
	admTbl.Rows = append(admTbl.Rows,
		[]string{"open door", fmt.Sprintf("%d", open.Offered), "0",
			fmt.Sprintf("%d", open.Routed), ms(open.P99TTFT.Milliseconds()), f1(open.Goodput)},
		[]string{"25 req/s bucket", fmt.Sprintf("%d", shed.Offered), fmt.Sprintf("%d", shed.Rejected),
			fmt.Sprintf("%d", shed.Routed), ms(shed.P99TTFT.Milliseconds()), f1(shed.Goodput)},
	)
	res.Tables = append(res.Tables, admTbl)

	// Determinism: the acceptance criterion — same spec, byte-identical
	// fleet stats including every per-instance series.
	againRep, err := spec.Simulate(clusterStudySpec(cluster.PlatformAware.String()))
	if err != nil {
		return nil, err
	}
	again := againRep.Cluster

	rr := byPolicy[cluster.RoundRobin]
	lq := byPolicy[cluster.LeastQueue]
	pa := byPolicy[cluster.PlatformAware]
	minT, maxT := pa.P99TTFT, pa.P99TTFT
	for _, policy := range cluster.Policies() {
		st := byPolicy[policy]
		if st.P99TTFT < minT {
			minT = st.P99TTFT
		}
		if st.P99TTFT > maxT {
			maxT = st.P99TTFT
		}
	}
	ledgerOK := true
	for _, policy := range cluster.Policies() {
		st := byPolicy[policy]
		settled := 0
		for _, is := range st.Instances {
			settled += is.Serve.Completed + is.Serve.Abandoned
		}
		if st.Offered != st.Rejected+st.Unroutable+st.Routed || settled != st.Routed {
			ledgerOK = false
		}
	}

	res.Checks = append(res.Checks,
		checkBool("same seed reproduces byte-identical fleet stats",
			reflect.DeepEqual(again, pa),
			fmt.Sprintf("rerun P99 TTFT %v vs %v", again.P99TTFT, pa.P99TTFT),
			"shared-clock simulation is deterministic"),
		checkBool("request ledger reconciles exactly for every policy",
			ledgerOK,
			fmt.Sprintf("round-robin: %d = %d rejected + %d unroutable + %d routed",
				rr.Offered, rr.Rejected, rr.Unroutable, rr.Routed),
			"no request lost or duplicated across routing, queueing, preemption, abandonment"),
		checkBool("routing policy measurably moves fleet P99 TTFT",
			maxT > minT+minT/20,
			fmt.Sprintf("P99 spread %v – %v across policies", minT, maxT),
			"placement decides tail latency on a heterogeneous fleet"),
		checkBool("load-aware routing beats oblivious round-robin P99 TTFT",
			lq.P99TTFT < rr.P99TTFT,
			fmt.Sprintf("least-queue %v vs round-robin %v", lq.P99TTFT, rr.P99TTFT),
			"watching instance queues contains the tail that fixed striping cannot"),
		checkBool("platform-aware routing biases short prompts onto the coupled nodes",
			coupledShare(pa) > coupledShare(rr),
			fmt.Sprintf("coupled share %.2f vs round-robin %.2f", coupledShare(pa), coupledShare(rr)),
			"the router implements the regime split; the table shows its cost in the dispatch-bound eager regime"),
		checkBool("session affinity changes agentic placement vs least-queue",
			!reflect.DeepEqual(routedCounts(agStats[cluster.SessionAffinity]), routedCounts(agStats[cluster.LeastQueue])),
			fmt.Sprintf("affinity split %v vs least-queue %v",
				routedCounts(agStats[cluster.SessionAffinity]), routedCounts(agStats[cluster.LeastQueue])),
			"whole trajectories pin to the instance that served turn one"),
		checkBool("admission control sheds load and contains the tail",
			shed.Rejected > 0 && shed.Routed < open.Routed,
			fmt.Sprintf("%d rejected, P99 %v vs open-door %v", shed.Rejected, shed.P99TTFT, open.P99TTFT),
			"the token bucket trades completed volume for front-door predictability"),
		checkBool("all four instances participate under every policy",
			allInstancesUsed(byPolicy),
			"every instance routed > 0 requests",
			"no policy degenerates to a single hot instance"),
		checkBool("decision records cover every placement exactly once",
			routing != nil && routing.Picks == cfRep.Cluster.Routed && len(routing.Decisions) == routing.Picks,
			fmt.Sprintf("%d decisions for %d routed requests", len(routing.Decisions), cfRep.Cluster.Routed),
			"the routing audit trail reconciles with the ledger on a static fleet"),
		checkBool("counterfactual replay partitions cleanly",
			counterfactualsPartition(routing),
			"agreed + differed == picks for every replayed policy",
			"each recorded snapshot yields exactly one verdict per alternative policy"),
	)
	return res, nil
}

// coupledShare is the fraction of routed requests placed on coupled
// (GH200-class) instances.
func coupledShare(st *cluster.Stats) float64 {
	if st.Routed == 0 {
		return 0
	}
	coupled := 0
	for _, is := range st.Instances {
		if is.Platform == hw.GH200Name {
			coupled += is.Routed
		}
	}
	return float64(coupled) / float64(st.Routed)
}

// counterfactualsPartition verifies every replayed policy's
// agreed/differed split sums back to the recorded pick count.
func counterfactualsPartition(r *cluster.RoutingStats) bool {
	if r == nil || len(r.Counterfactuals) == 0 {
		return false
	}
	for _, cf := range r.Counterfactuals {
		if cf.Picks != r.Picks || cf.Agreed+cf.Differed != cf.Picks {
			return false
		}
	}
	return true
}

func routedCounts(st *cluster.Stats) []int {
	counts := make([]int, len(st.Instances))
	for i, is := range st.Instances {
		counts[i] = is.Routed
	}
	return counts
}

func allInstancesUsed(byPolicy map[cluster.Policy]*cluster.Stats) bool {
	for _, policy := range cluster.Policies() {
		for _, is := range byPolicy[policy].Instances {
			if is.Routed == 0 {
				return false
			}
		}
	}
	return true
}
