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
		ID:    "ext11-chaos",
		Title: "Dynamic fleet lifecycle study: SLO goodput under failure injection, and autoscale reactivity as a platform property",
		Paper: "extension of §V-B — the paper characterizes steady fleets; this study asks how the coupled/discrete asymmetry behaves when membership churns: crashes re-route in-flight work through the router, and spin-up lag (weights over NVLink-C2C vs PCIe) decides how fast added capacity actually lands",
		Run:   runExtChaos,
	})
}

// chaosStudySpec is one experiment document: a homogeneous fleet under
// the shared chat stream, with optional autoscale and fault sections.
func chaosStudySpec(platform string, count int, a *spec.AutoscaleSpec, f *spec.FaultsSpec) *spec.Spec {
	return &spec.Spec{
		Model: "llama-3.2-1B",
		Workload: &spec.WorkloadSpec{
			Scenario: "chat", Requests: 96, RatePerSec: 32, Seed: 19,
		},
		Serve: studyServe(32),
		Fleet: &spec.FleetSpec{
			Groups:    []spec.FleetGroupSpec{{Platform: platform, Count: count}},
			Router:    "least-queue",
			Autoscale: a,
			Faults:    f,
		},
	}
}

func runExtChaos() (*Result, error) {
	res := &Result{ID: "ext11-chaos", Title: "Extension 11"}

	// Part 1: SLO goodput vs crash rate. A 4-node fleet per platform,
	// seeded-random crashes swept over the rate; every crash evicts the
	// victim's in-flight work and re-routes it through the router, so
	// goodput degrades by requeue recomputation, not lost requests.
	rates := []float64{0.25, 0.5, 1, 2, 4}
	tbl := Table{
		Title: "SLO goodput vs crash rate, 4-node homogeneous fleets (Llama-3.2-1B chat, least-queue, 500ms TTFT SLO, seed 5)",
		Columns: []string{"Fleet", "crashes/s", "crashes", "killed", "requeued", "dropped",
			"P95 TTFT (ms)", "goodput (req/s)", "SLO att."},
	}
	faultFree := map[string]*cluster.Stats{}
	rateStats := map[string][]*cluster.Stats{} // platform → per-rate stats
	ledgerOK := true
	for _, platform := range []string{hw.GH200Name, hw.IntelH100Name} {
		baseRep, err := spec.Simulate(chaosStudySpec(platform, 4, nil, nil))
		if err != nil {
			return nil, err
		}
		bc := baseRep.Cluster
		faultFree[platform] = bc
		tbl.Rows = append(tbl.Rows, []string{
			platform + ":4", "0", "0", "-", "-", "-",
			ms(bc.P95TTFT.Milliseconds()), f1(bc.Goodput), f2(bc.SLOAttainment),
		})
		sw := chaosStudySpec(platform, 4, nil, &spec.FaultsSpec{CrashRatePerSec: rates[0], Seed: 5})
		values := make([]any, len(rates))
		for i, r := range rates {
			values[i] = r
		}
		sw.Sweep = &spec.SweepSpec{Field: "fleet.faults.crash_rate_per_sec", Values: values}
		swRep, err := spec.Simulate(sw)
		if err != nil {
			return nil, err
		}
		for i, pt := range swRep.Sweep {
			st := pt.Report.Cluster
			rateStats[platform] = append(rateStats[platform], st)
			c := st.Chaos
			if c.Killed != c.Requeued+c.Dropped ||
				st.Routed != st.Completed+st.Abandoned+c.Dropped {
				ledgerOK = false
			}
			tbl.Rows = append(tbl.Rows, []string{
				platform + ":4", fmt.Sprintf("%g", rates[i]), d(c.Crashes), d(c.Killed),
				d(c.Requeued), d(c.Dropped),
				ms(st.P95TTFT.Milliseconds()), f1(st.Goodput), f2(st.SLOAttainment),
			})
		}
	}
	tbl.Notes = append(tbl.Notes,
		"crash instants are a seeded Poisson process over the arrival window; victims are drawn uniformly from the survivors, and crashes that would leave fewer than two accepting instances are skipped",
		"killed = requeued + dropped exactly: every eviction is re-placed through the router (recomputing from scratch, tokens already streamed counted once) or reported dropped",
		"goodput falls faster than throughput because requeued requests recompute their prefill — their first token usually already missed the 500ms SLO on the crashed host")
	res.Tables = append(res.Tables, tbl)

	// Part 2: autoscale reactivity as a platform property. The same
	// 2-node fleet loses a base instance at 800ms; the controller grows
	// replacements, but the capacity only lands after the spin-up delay
	// — the knob that encodes how fast a platform loads weights (NVLink-
	// C2C streams them at 450 GB/s; a PCIe host store-and-forwards).
	spinUps := []int{500, 2000, 4000}
	reTbl := Table{
		Title: "Autoscale reactivity under a crash: spin-up delay vs recovered goodput (2 base nodes, max 4, queue-depth target 4, crash at 800ms)",
		Columns: []string{"Fleet", "spin-up (ms)", "joins", "peak active", "final active",
			"P95 TTFT (ms)", "goodput (req/s)"},
	}
	reactStats := map[string][]*cluster.Stats{}
	for _, platform := range []string{hw.GH200Name, hw.IntelH100Name} {
		for _, su := range spinUps {
			rep, err := spec.Simulate(chaosStudySpec(platform, 2,
				&spec.AutoscaleSpec{
					Platform: platform, Target: 4, Max: 4,
					IntervalMs: 100, CooldownMs: 200, SpinUpDelayMs: float64(su),
				},
				&spec.FaultsSpec{Schedule: []spec.FaultSpec{
					{AtMs: 800, Kind: "crash", Instance: 0},
				}}))
			if err != nil {
				return nil, err
			}
			st := rep.Cluster
			reactStats[platform] = append(reactStats[platform], st)
			c := st.Chaos
			reTbl.Rows = append(reTbl.Rows, []string{
				platform + ":2+as", d(su), d(c.Joins), d(c.PeakActive), d(c.FinalActive),
				ms(st.P95TTFT.Milliseconds()), f1(st.Goodput),
			})
		}
	}
	reTbl.Notes = append(reTbl.Notes,
		"the controller period (100ms) and the workload are identical across rows: only how long a spun-up instance takes to join differs — the fleet-size series shifts right by the spin-up delay",
		"the platform defaults the spec would apply (2s coupled, 4s loosely-coupled) bracket the swept values: a coupled node that streams weights over NVLink-C2C recovers roughly a controller period sooner than a PCIe host",
		"goodput counts completions whose TTFT met the 500ms SLO; requests that queued through the capacity gap are the difference between rows")
	res.Tables = append(res.Tables, reTbl)

	// Determinism: the acceptance criterion — the full chaos stack
	// (autoscale + seeded crashes) reproduces identical stats.
	chaosSpec := func() *spec.Spec {
		return chaosStudySpec(hw.GH200Name, 2,
			&spec.AutoscaleSpec{Platform: hw.GH200Name, Target: 4, Max: 4, IntervalMs: 100, CooldownMs: 200, SpinUpDelayMs: 500},
			&spec.FaultsSpec{CrashRatePerSec: 1, Seed: 5})
	}
	onceRep, err := spec.Simulate(chaosSpec())
	if err != nil {
		return nil, err
	}
	againRep, err := spec.Simulate(chaosSpec())
	if err != nil {
		return nil, err
	}

	ghRates, intelRates := rateStats[hw.GH200Name], rateStats[hw.IntelH100Name]
	ghReact := reactStats[hw.GH200Name]
	worstGH := ghRates[len(ghRates)-1]
	worstIntel := intelRates[len(intelRates)-1]

	res.Checks = append(res.Checks,
		checkBool("same chaos spec reproduces byte-identical fleet stats",
			reflect.DeepEqual(onceRep.Cluster, againRep.Cluster),
			fmt.Sprintf("rerun goodput %.3f vs %.3f, %d vs %d crashes",
				againRep.Cluster.Goodput, onceRep.Cluster.Goodput,
				againRep.Cluster.Chaos.Crashes, onceRep.Cluster.Chaos.Crashes),
			"the seeded fault plan and controller run on the shared calendar; churn does not break determinism"),
		checkBool("the churn ledger balances exactly at every crash rate",
			ledgerOK,
			fmt.Sprintf("GH200 at %g/s: %d killed = %d requeued + %d dropped",
				rates[len(rates)-1], worstGH.Chaos.Killed, worstGH.Chaos.Requeued, worstGH.Chaos.Dropped),
			"killed == requeued + dropped and routed == completed + abandoned + dropped, for every configuration"),
		checkBool("crashes cost goodput on both platforms",
			worstGH.Goodput < faultFree[hw.GH200Name].Goodput &&
				worstIntel.Goodput < faultFree[hw.IntelH100Name].Goodput,
			fmt.Sprintf("GH200 %.1f → %.1f req/s, Intel+H100 %.1f → %.1f req/s at %g crashes/s",
				faultFree[hw.GH200Name].Goodput, worstGH.Goodput,
				faultFree[hw.IntelH100Name].Goodput, worstIntel.Goodput, rates[len(rates)-1]),
			"requeued work recomputes its prefill, so every crash converts SLO-meeting completions into late ones"),
		checkBool("crashes actually fired at the top rate on both platforms",
			worstGH.Chaos.Crashes > 0 && worstIntel.Chaos.Crashes > 0,
			fmt.Sprintf("GH200 %d, Intel+H100 %d crashes at %g/s",
				worstGH.Chaos.Crashes, worstIntel.Chaos.Crashes, rates[len(rates)-1]),
			"the Poisson plan lands injections inside the arrival window"),
		checkBool("faster spin-up recovers at least the goodput of slower spin-up",
			ghReact[0].Goodput >= ghReact[len(ghReact)-1].Goodput,
			fmt.Sprintf("GH200 goodput %.2f req/s at %dms spin-up vs %.2f at %dms",
				ghReact[0].Goodput, spinUps[0], ghReact[len(ghReact)-1].Goodput, spinUps[len(spinUps)-1]),
			"reactivity is a platform property: capacity that lands sooner absorbs the post-crash queue sooner"),
		checkBool("the controller replaced the crashed capacity",
			ghReact[0].Chaos.Joins >= 1 && ghReact[0].Chaos.PeakActive >= 2,
			fmt.Sprintf("GH200 at %dms spin-up: %d joins, peak active %d (managed nodes drain once the tail runs cold)",
				spinUps[0], ghReact[0].Chaos.Joins, ghReact[0].Chaos.PeakActive),
			"autoscale and fault injection compose: the crash is a load signal the controller answers"),
		checkBool("fault-free runs carry no churn ledger",
			faultFree[hw.GH200Name].Chaos == nil,
			fmt.Sprintf("baseline Chaos == nil: %v", faultFree[hw.GH200Name].Chaos == nil),
			"a spec without autoscale/faults sections reports bit-identically to the pre-lifecycle simulator"),
	)
	return res, nil
}
