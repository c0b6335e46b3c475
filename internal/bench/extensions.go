package bench

import (
	"fmt"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

// Extension experiments: beyond the paper's published artifacts, these
// implement its stated future work (§VI: "a more comprehensive kernel
// fusion prototype to validate the predicted performance gains") and
// ablate the three latency contributors it names (GPU performance, CPU
// performance, coupling/memory).

func init() {
	register(&Experiment{
		ID:    "ext1-applied-fusion",
		Title: "Applied proximity-score fusion: simulated vs idealized (Eq. 8) speedup (GPT-2, BS=1, GH200)",
		Paper: "future work §VI — validates when the idealized launch-savings model is reachable",
		Run:   runExtAppliedFusion,
	})
	register(&Experiment{
		ID:    "ext2-decode",
		Title: "Decode-phase characterization: TTFT vs TPOT and per-phase GPU idle (Llama-3.2-1B)",
		Paper: "§II-A — prefill pressures compute, decode pressures memory and the launch path",
		Run:   runExtDecode,
	})
	register(&Experiment{
		ID:    "ext3-ablation-cpu",
		Title: "Ablation: Grace single-thread performance vs low-batch latency (Bert, BS=1, GH200)",
		Paper: "§VI — 'addressing these bottlenecks requires enhancing CPU performance'",
		Run:   runExtAblationCPU,
	})
	register(&Experiment{
		ID:    "ext4-ablation-launch",
		Title: "Ablation: launch overhead vs low-batch latency (Bert, BS=1, GH200)",
		Paper: "§V-A — launch tax is one CPU-bound component; framework time is the other",
		Run:   runExtAblationLaunch,
	})
	register(&Experiment{
		ID:    "ext5-ablation-bandwidth",
		Title: "Ablation: HBM bandwidth vs large-batch latency (Bert, BS=64, GH200)",
		Paper: "§V-B — high-bandwidth memory drives the GH200's large-batch advantage",
		Run:   runExtAblationBandwidth,
	})
}

func runExtAppliedFusion() (*Result, error) {
	res := &Result{ID: "ext1-applied-fusion", Title: "Extension 1"}
	model, err := models.ByName("gpt2")
	if err != nil {
		return nil, err
	}
	req := engine.Request{Platform: hw.GH200(), Model: model, Batch: 1, Seq: 512, Mode: engine.Eager}
	eager, err := engine.Run(req)
	if err != nil {
		return nil, err
	}
	seq := fusion.KernelSequence(eager.Trace)

	tbl := Table{
		Title:   "Speedup over eager by chain length: idealized (Eq. 8) vs applied fusion",
		Columns: []string{"L", "instances fused", "ideal (Eq.8)", "launch-savings-only", "full-region"},
		Notes: []string{
			"launch-savings-only: framework still walks every operator; only launch calls collapse",
			"full-region: the fused region becomes one compiled dispatch — Eq. 8's implicit assumption",
		},
	}
	var lastFull, lastIdeal float64
	maxFull, maxCons := 0.0, 0.0
	for _, l := range []int{4, 8, 16, 32, 64, 128, 256} {
		ideal, err := fusion.Analyze(seq, l)
		if err != nil {
			return nil, err
		}
		cons, err := engine.RunFused(req, l, engine.LaunchSavingsOnly)
		if err != nil {
			return nil, err
		}
		full, err := engine.RunFused(req, l, engine.FullRegionFusion)
		if err != nil {
			return nil, err
		}
		consS := float64(eager.TTFT) / float64(cons.Result.TTFT)
		fullS := float64(eager.TTFT) / float64(full.Result.TTFT)
		if consS > maxCons {
			maxCons = consS
		}
		if fullS > maxFull {
			maxFull = fullS
		}
		lastFull, lastIdeal = fullS, ideal.IdealSpeedup
		tbl.Rows = append(tbl.Rows, []string{
			d(l), d(cons.FusedInstances), f2(ideal.IdealSpeedup), f2(consS), f2(fullS),
		})
	}
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks,
		checkBool("launch-savings-only helps but modestly", maxCons > 1.0 && maxCons < 1.5,
			f2(maxCons), ">1, small"),
		checkBool("full-region realizes most of the model", maxFull > maxCons,
			f2(maxFull), "closer to ideal"),
		checkBand("full-region vs ideal at L=256", lastFull/lastIdeal, 0.3, 1.6, "≈1 when CPU-bound"),
	)
	return res, nil
}

func runExtDecode() (*Result, error) {
	res := &Result{ID: "ext2-decode", Title: "Extension 2"}
	model, err := models.ByName("llama-3.2-1B")
	if err != nil {
		return nil, err
	}
	tbl := Table{
		Title:   "Generation phases: prefill (seq 512) + 16 decode steps, BS=1, eager",
		Columns: []string{"Platform", "TTFT (ms)", "TPOT (ms)", "prefill GPU idle", "decode GPU idle", "decode kernels/step"},
	}
	type row struct {
		prefillIdle, decodeIdle float64
		tpot                    float64
	}
	rows := map[string]row{}
	for _, p := range hw.EvaluationPlatforms() {
		g, err := engine.RunGenerate(engine.Request{
			Platform: p, Model: model, Batch: 1, Seq: 512, Mode: engine.Eager,
		}, 16)
		if err != nil {
			return nil, err
		}
		prefillIdle := 1 - float64(g.PrefillGPUBusy)/float64(g.TTFT)
		decodeIdle := 1 - float64(g.DecodeGPUBusy)/float64(g.DecodeTime)
		rows[p.Name] = row{prefillIdle, decodeIdle, g.TPOT.Milliseconds()}
		tbl.Rows = append(tbl.Rows, []string{
			p.Name, ms(g.TTFT.Milliseconds()), ms(g.TPOT.Milliseconds()),
			fmt.Sprintf("%.0f%%", prefillIdle*100), fmt.Sprintf("%.0f%%", decodeIdle*100),
			d(g.DecodeKernelsPerStep),
		})
	}
	res.Tables = append(res.Tables, tbl)

	for _, p := range hw.EvaluationPlatforms() {
		r := rows[p.Name]
		res.Checks = append(res.Checks, checkBool(
			p.Name+" decode more launch-bound than prefill", r.decodeIdle > r.prefillIdle,
			fmt.Sprintf("%.0f%% vs %.0f%%", r.decodeIdle*100, r.prefillIdle*100), "decode idles more"))
	}
	res.Checks = append(res.Checks, checkBool(
		"Grace CPU penalizes decode hardest (TPOT worst on GH200)",
		rows[hw.GH200Name].tpot > rows[hw.IntelH100Name].tpot,
		f2(rows[hw.GH200Name].tpot/rows[hw.IntelH100Name].tpot)+"x Intel",
		"CC low-batch decode bound by CPU"))
	return res, nil
}

func runExtAblationCPU() (*Result, error) {
	res := &Result{ID: "ext3-ablation-cpu", Title: "Extension 3"}
	model, err := models.ByName("bert-base-uncased")
	if err != nil {
		return nil, err
	}
	tbl := Table{
		Title:   "Bert BS=1 TTFT on GH200 as the Grace single-thread score varies",
		Columns: []string{"SingleThreadScore", "TTFT (ms)", "vs stock"},
	}
	var ttfts []float64
	scores := []float64{0.31, 0.50, 0.70, 1.00}
	for _, score := range scores {
		p := hw.GH200()
		p.CPU.SingleThreadScore = score
		r, err := engine.Run(engine.Request{Platform: p, Model: model, Batch: 1, Seq: 512, Mode: engine.Eager})
		if err != nil {
			return nil, err
		}
		ttfts = append(ttfts, r.TTFT.Milliseconds())
		tbl.Rows = append(tbl.Rows, []string{
			f2(score), ms(r.TTFT.Milliseconds()), f2(ttfts[0] / r.TTFT.Milliseconds()),
		})
	}
	res.Tables = append(res.Tables, tbl)
	monotone := true
	for i := 1; i < len(ttfts); i++ {
		if ttfts[i] >= ttfts[i-1] {
			monotone = false
		}
	}
	res.Checks = append(res.Checks,
		checkBool("TTFT falls monotonically with CPU score", monotone,
			fmt.Sprintf("%.1f→%.1f ms", ttfts[0], ttfts[len(ttfts)-1]), "monotone"),
		checkBand("x86-class Grace would cut low-batch latency", ttfts[0]/ttfts[len(ttfts)-1], 1.8, 3.5, "≈2.8x headroom"),
	)
	return res, nil
}

func runExtAblationLaunch() (*Result, error) {
	res := &Result{ID: "ext4-ablation-launch", Title: "Extension 4"}
	model, err := models.ByName("bert-base-uncased")
	if err != nil {
		return nil, err
	}
	tbl := Table{
		Title:   "Bert BS=1 TTFT on GH200 as the launch overhead scales",
		Columns: []string{"Launch overhead (ns)", "TTFT (ms)", "vs stock"},
		Notes: []string{
			"launch overhead alone is a minor share of the CPU-bound cadence; framework",
			"operator time dominates — which is why whole-region fusion beats launch-only savings",
		},
	}
	var ttfts []float64
	for _, scale := range []float64{0.5, 1, 2, 4} {
		p := hw.GH200()
		p.LaunchOverheadNs *= scale
		r, err := engine.Run(engine.Request{Platform: p, Model: model, Batch: 1, Seq: 512, Mode: engine.Eager})
		if err != nil {
			return nil, err
		}
		ttfts = append(ttfts, r.TTFT.Milliseconds())
		tbl.Rows = append(tbl.Rows, []string{
			f1(p.LaunchOverheadNs), ms(r.TTFT.Milliseconds()), f2(r.TTFT.Milliseconds() / ttfts[0]),
		})
	}
	res.Tables = append(res.Tables, tbl)
	monotone := ttfts[0] < ttfts[1] && ttfts[1] < ttfts[2] && ttfts[2] < ttfts[3]
	res.Checks = append(res.Checks,
		checkBool("TTFT grows with launch overhead", monotone,
			fmt.Sprintf("%.1f→%.1f ms", ttfts[0], ttfts[3]), "monotone"),
		checkBand("8x overhead spread moves TTFT modestly", ttfts[3]/ttfts[0], 1.02, 1.8, "bounded"),
	)
	return res, nil
}

func runExtAblationBandwidth() (*Result, error) {
	res := &Result{ID: "ext5-ablation-bandwidth", Title: "Extension 5"}
	model, err := models.ByName("bert-base-uncased")
	if err != nil {
		return nil, err
	}
	tbl := Table{
		Title:   "Bert BS=64 TTFT on GH200 as HBM bandwidth scales",
		Columns: []string{"HBM (GB/s)", "TTFT (ms)", "vs stock"},
	}
	var ttfts []float64
	for _, scale := range []float64{0.5, 1, 2} {
		p := hw.GH200()
		p.GPU.HBMGBps *= scale
		r, err := engine.Run(engine.Request{Platform: p, Model: model, Batch: 64, Seq: 512, Mode: engine.Eager})
		if err != nil {
			return nil, err
		}
		ttfts = append(ttfts, r.TTFT.Milliseconds())
		tbl.Rows = append(tbl.Rows, []string{
			f1(p.GPU.HBMGBps), ms(r.TTFT.Milliseconds()), f2(r.TTFT.Milliseconds() / ttfts[0]),
		})
	}
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks,
		checkBool("large-batch TTFT is bandwidth-sensitive",
			ttfts[0] > ttfts[1] && ttfts[1] > ttfts[2],
			fmt.Sprintf("%.1f/%.1f/%.1f ms", ttfts[0], ttfts[1], ttfts[2]), "monotone in 1/BW"),
		checkBand("halving bandwidth hurts ≥20%", ttfts[0]/ttfts[1], 1.2, 2.0, "memory-bound region"),
	)
	return res, nil
}
