package bench

import (
	"fmt"

	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

func init() {
	register(&Experiment{
		ID:    "fig3",
		Title: "TTFT speedups of FlashAttention-2 and torch.compile max-autotune over eager (7B models, Intel+H100)",
		Paper: "FA2 1.12/1.24/1.34; torch.compile 1.56/1.32/1.54 (Gemma-7B/Llama2-7B/Mistral-7B)",
		Run:   runFig3,
	})
	register(&Experiment{
		ID:    "fig5",
		Title: "Kernel counts and average launch+queuing time per execution mode (7B models, Intel+H100)",
		Paper: "eager ≈1500 kernels shrinking sharply under FA2 and torch.compile; avg launch+queue time drops",
		Run:   runFig5,
	})
	register(&Experiment{
		ID:    "fig7",
		Title: "Kernel fusion chain mining: unique chains, instances, fused chains, K_eager (GPT-2 & XLM-R, Intel+H100)",
		Paper: "K_eager 403/455/467 (GPT-2) and 251/299/359 (XLM-R); fused chains decrease with L",
		Run:   runFig7,
	})
	register(&Experiment{
		ID:    "fig8",
		Title: "Ideal speedup from kernel-launch savings vs chain length",
		Paper: "up to 2.7x for GPT-2 and 6.8x for XLM-Roberta-Base",
		Run:   runFig8,
	})
	register(&Experiment{
		ID:    "fig9",
		Title: "Proximity-score fusion vs torch.compile (CUDA Graphs) speedups, GPT-2 prefill",
		Paper: "best PS chain (L=256) ≈ 1.3x over torch.compile reduce-overhead",
		Run:   runFig9,
	})
}

var fusionBatches = []int64{1, 2, 4}

// fusionStudySeq runs one eager prefill on Intel+H100 and returns the
// kernel sequence (the SKIP trace pipeline end to end).
func fusionStudySeq(model *models.Config, bs int64) ([]string, error) {
	r, err := engine.Run(engine.Request{
		Platform: hw.IntelH100(), Model: model, Batch: bs, Seq: 512, Mode: engine.Eager,
	})
	if err != nil {
		return nil, err
	}
	return fusion.KernelSequence(r.Trace), nil
}

func runFig3() (*Result, error) {
	res := &Result{ID: "fig3", Title: "Fig. 3"}
	p := hw.IntelH100()
	tbl := Table{
		Title:   "TTFT speedup over eager (BS=1, seq=1024, Intel+H100)",
		Columns: []string{"Model", "FlashAttention2", "torch.compile (max-autotune)"},
	}
	var faMin, tcMin, faMax, tcMax float64 = 99, 99, 0, 0
	for _, m := range models.FusionStudyModels() {
		var ttft [3]float64
		for i, mode := range []engine.Mode{engine.Eager, engine.Flash, engine.CompileMaxAutotune} {
			r, err := engine.Run(engine.Request{Platform: p, Model: m, Batch: 1, Seq: 1024, Mode: mode})
			if err != nil {
				return nil, err
			}
			ttft[i] = r.TTFT.Seconds()
		}
		fa, tc := ttft[0]/ttft[1], ttft[0]/ttft[2]
		if fa < faMin {
			faMin = fa
		}
		if fa > faMax {
			faMax = fa
		}
		if tc < tcMin {
			tcMin = tc
		}
		if tc > tcMax {
			tcMax = tc
		}
		tbl.Rows = append(tbl.Rows, []string{m.Name, f2(fa), f2(tc)})
	}
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks,
		checkBand("FA2 speedup range (min)", faMin, 1.02, 1.5, "1.12-1.34"),
		checkBand("FA2 speedup range (max)", faMax, 1.05, 1.7, "1.12-1.34"),
		checkBand("torch.compile speedup (min)", tcMin, 1.1, 1.8, "1.32-1.56"),
		checkBool("torch.compile ≥ FA2 on every model", tcMin >= faMin, f2(tcMin), "TC dominates"),
	)
	return res, nil
}

func runFig5() (*Result, error) {
	res := &Result{ID: "fig5", Title: "Fig. 5"}
	p := hw.IntelH100()
	counts := Table{
		Title:   "Kernel counts per execution mode (BS=1, seq=1024, Intel+H100)",
		Columns: []string{"Model", "Eager", "FlashAttention", "Torch Compile"},
	}
	delays := Table{
		Title:   "Avg. launch + queuing time per kernel (ms)",
		Columns: []string{"Model", "Eager", "FlashAttention", "Torch Compile"},
		Notes: []string{
			"the simulated 7B prefill sits deep in the GPU-bound regime, so queuing dominates",
			"per-kernel delay in every mode (graph replay enqueues all kernels at once); the",
			"paper's near-balanced measurements show lower absolute delays — see EXPERIMENTS.md",
		},
	}
	type cell struct {
		kernels int
		avgUs   float64
	}
	// Checks follow the table's model order, one per row.
	for _, m := range models.FusionStudyModels() {
		var row [3]cell
		for i, mode := range []engine.Mode{engine.Eager, engine.Flash, engine.CompileReduceOverhead} {
			r, err := engine.Run(engine.Request{Platform: p, Model: m, Batch: 1, Seq: 1024, Mode: mode})
			if err != nil {
				return nil, err
			}
			metrics, _, err := core.Analyze(r.Trace)
			if err != nil {
				return nil, err
			}
			row[i] = cell{
				kernels: metrics.KernelCount,
				avgUs:   metrics.MeanDelay.Milliseconds(),
			}
		}
		counts.Rows = append(counts.Rows, []string{m.Name, d(row[0].kernels), d(row[1].kernels), d(row[2].kernels)})
		delays.Rows = append(delays.Rows, []string{m.Name, f2(row[0].avgUs), f2(row[1].avgUs), f2(row[2].avgUs)})
		res.Checks = append(res.Checks,
			checkBool(m.Name+" kernel count ordering eager>FA>TC",
				row[0].kernels > row[1].kernels && row[1].kernels > row[2].kernels,
				fmt.Sprintf("%d/%d/%d", row[0].kernels, row[1].kernels, row[2].kernels),
				"decreasing"),
		)
	}
	counts.Notes = append(counts.Notes,
		"torch.compile counts device kernels inside the replayed CUDA graph; the host sees a single launch")
	res.Tables = append(res.Tables, counts, delays)
	return res, nil
}

func runFig7() (*Result, error) {
	res := &Result{ID: "fig7", Title: "Fig. 7"}
	paperKeager := map[string][3]int{
		"gpt2":             {403, 455, 467},
		"xlm-roberta-base": {251, 299, 359},
	}
	for _, name := range []string{"gpt2", "xlm-roberta-base"} {
		model, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		unique := Table{
			Title:   fmt.Sprintf("(a) Unique kernel chains — %s", name),
			Columns: append([]string{"Batch"}, lengthCols()...),
		}
		instances := Table{
			Title:   fmt.Sprintf("(b) Total chain instances — %s", name),
			Columns: append([]string{"Batch"}, lengthCols()...),
		}
		fused := Table{
			Title:   fmt.Sprintf("(c) Deterministic chains fused (PS=1) — %s", name),
			Columns: append([]string{"Batch"}, lengthCols()...),
		}
		keager := Table{
			Title:   fmt.Sprintf("(d) Eager kernel launches K_eager — %s", name),
			Columns: []string{"Batch", "K_eager", "paper"},
		}
		for bi, bs := range fusionBatches {
			seq, err := fusionStudySeq(model, bs)
			if err != nil {
				return nil, err
			}
			rep, err := fusion.Sweep(seq, fusion.StandardLengths())
			if err != nil {
				return nil, err
			}
			ur := []string{fmt.Sprintf("BS=%d", bs)}
			ir := []string{fmt.Sprintf("BS=%d", bs)}
			fr := []string{fmt.Sprintf("BS=%d", bs)}
			var prevFused = 1 << 30
			monotone := true
			for _, row := range rep.Rows {
				ur = append(ur, d(row.UniqueChains))
				ir = append(ir, d(row.TotalInstances))
				fr = append(fr, d(row.FusedChains))
				if row.FusedChains > prevFused {
					monotone = false
				}
				prevFused = row.FusedChains
			}
			unique.Rows = append(unique.Rows, ur)
			instances.Rows = append(instances.Rows, ir)
			fused.Rows = append(fused.Rows, fr)
			paper := paperKeager[name][bi]
			keager.Rows = append(keager.Rows, []string{fmt.Sprintf("BS=%d", bs), d(len(seq)), d(paper)})

			res.Checks = append(res.Checks,
				checkBand(fmt.Sprintf("%s BS=%d K_eager", name, bs),
					float64(len(seq)), float64(paper)*0.85, float64(paper)*1.15, d(paper)),
				checkBool(fmt.Sprintf("%s BS=%d fused chains non-increasing in L", name, bs),
					monotone, "monotone", "decreasing"),
			)
		}
		res.Tables = append(res.Tables, unique, instances, fused, keager)
	}
	return res, nil
}

func runFig8() (*Result, error) {
	res := &Result{ID: "fig8", Title: "Fig. 8"}
	best := map[string]float64{}
	for _, name := range []string{"gpt2", "xlm-roberta-base"} {
		model, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		tbl := Table{
			Title:   fmt.Sprintf("Ideal speedup from kernel-launch savings — %s (Intel+H100)", name),
			Columns: append([]string{"Batch"}, lengthCols()...),
		}
		for _, bs := range fusionBatches {
			seq, err := fusionStudySeq(model, bs)
			if err != nil {
				return nil, err
			}
			rep, err := fusion.Sweep(seq, fusion.StandardLengths())
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("BS=%d", bs)}
			for _, a := range rep.Rows {
				row = append(row, f2(a.IdealSpeedup))
				if a.IdealSpeedup > best[name] {
					best[name] = a.IdealSpeedup
				}
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		res.Tables = append(res.Tables, tbl)
	}
	res.Checks = append(res.Checks,
		checkBand("gpt2 best ideal speedup", best["gpt2"], 2.0, 3.5, "up to 2.7"),
		checkBand("xlm-roberta best ideal speedup", best["xlm-roberta-base"], 4.5, 9.5, "up to 6.8"),
	)
	return res, nil
}

func runFig9() (*Result, error) {
	res := &Result{ID: "fig9", Title: "Fig. 9"}
	model, err := models.ByName("gpt2")
	if err != nil {
		return nil, err
	}
	p := hw.IntelH100()
	tbl := Table{
		Title:   "Speedup over eager: PS kernel fusion (ideal, by chain length) vs torch.compile reduce-overhead (measured) — GPT-2 prefill",
		Columns: append(append([]string{"Batch"}, lengthCols()...), "TC"),
	}
	var bestPSOverTC float64
	for _, bs := range fusionBatches {
		eager, err := engine.Run(engine.Request{Platform: p, Model: model, Batch: bs, Seq: 512, Mode: engine.Eager})
		if err != nil {
			return nil, err
		}
		tc, err := engine.Run(engine.Request{Platform: p, Model: model, Batch: bs, Seq: 512, Mode: engine.CompileReduceOverhead})
		if err != nil {
			return nil, err
		}
		tcSpeedup := float64(eager.TTFT) / float64(tc.TTFT)

		seq := fusion.KernelSequence(eager.Trace)
		rep, err := fusion.Sweep(seq, fusion.StandardLengths())
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("BS=%d", bs)}
		var bestPS float64
		for _, a := range rep.Rows {
			row = append(row, f2(a.IdealSpeedup))
			if a.IdealSpeedup > bestPS {
				bestPS = a.IdealSpeedup
			}
		}
		row = append(row, f2(tcSpeedup))
		tbl.Rows = append(tbl.Rows, row)
		if r := bestPS / tcSpeedup; r > bestPSOverTC {
			bestPSOverTC = r
		}
	}
	tbl.Notes = append(tbl.Notes,
		"PS columns are idealized (Eq. 8, launch savings only); TC is the simulated end-to-end speedup")
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks,
		checkBand("best PS-fusion advantage over torch.compile", bestPSOverTC, 1.0, 2.2, "1.3x at L=256"),
	)
	return res, nil
}

func lengthCols() []string {
	var cols []string
	for _, l := range fusion.StandardLengths() {
		cols = append(cols, fmt.Sprintf("L=%d", l))
	}
	return cols
}
