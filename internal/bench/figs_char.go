package bench

import (
	"fmt"

	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

func init() {
	register(&Experiment{
		ID:    "fig6",
		Title: "TKLQT vs batch size for encoder models, with CPU→GPU-bound transition points",
		Paper: "transition ≈ BS 8 on LC systems, ≈ BS 32 on GH200 (4x more CPU-bound)",
		Run:   runFig6,
	})
	register(&Experiment{
		ID:    "fig10",
		Title: "Encoder prefill TTFT, GPU idle, CPU idle vs batch size (3 platforms)",
		Paper: "GH200 worst at BS=1 (2.8x/1.9x), best at BS=64 (1.6x/2.4x); CP ≈ 16",
		Run:   runFig10,
	})
	register(&Experiment{
		ID:    "fig11",
		Title: "Decoder prefill TTFT, GPU idle, CPU idle vs batch size (3 platforms)",
		Paper: "GPT2 CP ≈ 4; Llama-3.2-1B similar at BS=1, GH200 1.9x/2.7x at BS=16",
		Run:   runFig11,
	})
}

// charPoint is one (platform, batch) measurement.
type charPoint struct {
	res     *engine.Result
	metrics *core.Metrics
}

// sweepChar runs the characterization sweep for one model on the three
// evaluation platforms.
func sweepChar(model *models.Config, batches []int64) (map[string][]charPoint, error) {
	out := make(map[string][]charPoint)
	for _, p := range hw.EvaluationPlatforms() {
		for _, bs := range batches {
			r, err := engine.Run(engine.Request{Platform: p, Model: model, Batch: bs, Seq: 512, Mode: engine.Eager})
			if err != nil {
				return nil, err
			}
			m, _, err := core.Analyze(r.Trace)
			if err != nil {
				return nil, err
			}
			out[p.Name] = append(out[p.Name], charPoint{res: r, metrics: m})
		}
	}
	return out, nil
}

func toSeries(points []charPoint, batches []int64) []core.SeriesPoint {
	series := make([]core.SeriesPoint, len(points))
	for i, pt := range points {
		series[i] = core.SeriesPoint{
			Batch: batches[i], TKLQT: pt.metrics.TKLQT, TTFT: pt.res.TTFT, Metrics: pt.metrics,
		}
	}
	return series
}

var (
	encoderBatches = []int64{1, 2, 4, 8, 16, 32, 64}
	decoderBatches = []int64{1, 2, 4, 8, 16}
	platformOrder  = []string{hw.AMDA100Name, hw.IntelH100Name, hw.GH200Name}
	encoderModels  = []string{"bert-base-uncased", "xlm-roberta-base"}
)

func runFig6() (*Result, error) {
	res := &Result{ID: "fig6", Title: "Fig. 6"}
	transitions := make(map[string]map[string]int64) // model → platform → batch
	for _, name := range encoderModels {
		model, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		points, err := sweepChar(model, encoderBatches)
		if err != nil {
			return nil, err
		}
		tbl := Table{
			Title:   fmt.Sprintf("TKLQT (ms) vs batch size — %s (seq 512, eager)", name),
			Columns: append([]string{"Platform"}, batchCols(encoderBatches, "transition★")...),
		}
		transitions[name] = make(map[string]int64)
		for _, pname := range platformOrder {
			series := toSeries(points[pname], encoderBatches)
			tb, err := core.TransitionBatch(series)
			if err != nil {
				return nil, err
			}
			transitions[name][pname] = tb
			row := []string{pname}
			for _, pt := range series {
				row = append(row, ms(pt.TKLQT.Milliseconds()))
			}
			row = append(row, fmt.Sprintf("BS=%d", tb))
			tbl.Rows = append(tbl.Rows, row)
		}
		res.Tables = append(res.Tables, tbl)
	}

	for _, name := range encoderModels {
		tr := transitions[name]
		res.Checks = append(res.Checks,
			checkBand(name+" Intel transition", float64(tr[hw.IntelH100Name]), 4, 16, "≈8"),
			checkBand(name+" AMD transition", float64(tr[hw.AMDA100Name]), 4, 16, "≈8"),
			checkBand(name+" GH200 transition", float64(tr[hw.GH200Name]), 16, 64, "≈32"),
			checkBool(name+" GH200 ~4x more CPU-bound",
				tr[hw.GH200Name] >= 2*tr[hw.IntelH100Name],
				fmt.Sprintf("%dx", tr[hw.GH200Name]/max64(tr[hw.IntelH100Name], 1)), "4x"),
		)
	}
	return res, nil
}

func runFig10() (*Result, error) {
	return runCharFig("fig10", "Fig. 10",
		encoderModels, encoderBatches, checkFig10)
}

func runFig11() (*Result, error) {
	return runCharFig("fig11", "Fig. 11",
		[]string{"gpt2", "llama-3.2-1B"}, decoderBatches, checkFig11)
}

func runCharFig(id, title string, modelNames []string, batches []int64,
	mkChecks func(map[string]map[string][]charPoint) []Check) (*Result, error) {
	res := &Result{ID: id, Title: title}
	all := make(map[string]map[string][]charPoint)
	for _, name := range modelNames {
		model, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		points, err := sweepChar(model, batches)
		if err != nil {
			return nil, err
		}
		all[name] = points

		for _, metric := range []struct {
			title string
			get   func(charPoint) float64
		}{
			{"Inference time (ms)", func(p charPoint) float64 { return p.res.TTFT.Milliseconds() }},
			{"GPU idle time (ms)", func(p charPoint) float64 { return p.res.GPUIdle.Milliseconds() }},
			{"CPU idle time (ms)", func(p charPoint) float64 { return p.res.CPUIdle.Milliseconds() }},
		} {
			tbl := Table{
				Title:   fmt.Sprintf("%s vs batch size — %s (seq 512, eager)", metric.title, name),
				Columns: append([]string{"Platform"}, batchCols(batches)...),
			}
			for _, pname := range platformOrder {
				row := []string{pname}
				for _, pt := range points[pname] {
					row = append(row, ms(metric.get(pt)))
				}
				tbl.Rows = append(tbl.Rows, row)
			}
			res.Tables = append(res.Tables, tbl)
		}
	}
	res.Checks = mkChecks(all)
	return res, nil
}

func checkFig10(all map[string]map[string][]charPoint) []Check {
	var checks []Check
	for _, name := range encoderModels {
		points := all[name]
		intel, amd, gh := points[hw.IntelH100Name], points[hw.AMDA100Name], points[hw.GH200Name]
		last := len(encoderBatches) - 1
		bs1Intel := float64(gh[0].res.TTFT) / float64(intel[0].res.TTFT)
		bs1AMD := float64(gh[0].res.TTFT) / float64(amd[0].res.TTFT)
		spIntel := float64(intel[last].res.TTFT) / float64(gh[last].res.TTFT)
		spAMD := float64(amd[last].res.TTFT) / float64(gh[last].res.TTFT)
		checks = append(checks,
			checkBand(name+" BS=1 GH200/Intel latency ratio", bs1Intel, 2.1, 3.5, "2.8 (Bert)"),
			checkBand(name+" BS=1 GH200/AMD latency ratio", bs1AMD, 1.4, 2.4, "1.9 (Bert)"),
			checkBand(name+" BS=64 GH200 speedup over Intel", spIntel, 1.3, 2.0, "1.6 (Bert)"),
			checkBand(name+" BS=64 GH200 speedup over AMD", spAMD, 1.8, 2.9, "2.4 (Bert)"),
		)
		// Crossover: GH200 overtakes Intel beyond BS=16.
		ghS := toSeries(gh, encoderBatches)
		intelS := toSeries(intel, encoderBatches)
		cp, err := core.Crossover(ghS, intelS)
		checks = append(checks, checkBool(name+" crossover (GH200 vs Intel)",
			err == nil && cp >= 16 && cp <= 32, fmt.Sprintf("BS=%d", cp), "BS>16"))
	}
	return checks
}

func checkFig11(all map[string]map[string][]charPoint) []Check {
	var checks []Check
	gpt2 := all["gpt2"]
	llama := all["llama-3.2-1B"]
	last := len(decoderBatches) - 1

	gpt2CP, _ := core.Crossover(toSeries(gpt2[hw.GH200Name], decoderBatches),
		toSeries(gpt2[hw.IntelH100Name], decoderBatches))
	llamaCP, _ := core.Crossover(toSeries(llama[hw.GH200Name], decoderBatches),
		toSeries(llama[hw.IntelH100Name], decoderBatches))

	llamaBS1 := float64(llama[hw.GH200Name][0].res.TTFT) / float64(llama[hw.IntelH100Name][0].res.TTFT)
	spIntel := float64(llama[hw.IntelH100Name][last].res.TTFT) / float64(llama[hw.GH200Name][last].res.TTFT)
	spAMD := float64(llama[hw.AMDA100Name][last].res.TTFT) / float64(llama[hw.GH200Name][last].res.TTFT)

	checks = append(checks,
		checkBool("gpt2 crossover exists", gpt2CP != 0, fmt.Sprintf("BS=%d", gpt2CP), "BS=4"),
		checkBand("llama crossover", float64(llamaCP), 1, 4, "BS=1"),
		checkBand("llama BS=1 GH200/Intel ratio (no CP: similar latency)", llamaBS1, 0.7, 1.5, "≈1"),
		checkBand("llama BS=16 GH200 speedup over Intel", spIntel, 1.4, 2.3, "1.9"),
		checkBand("llama BS=16 GH200 speedup over AMD", spAMD, 2.0, 3.2, "2.7"),
		checkBool("llama GPU idle significant at BS=1 on GH200",
			float64(llama[hw.GH200Name][0].res.GPUIdle) > 0.1*float64(llama[hw.GH200Name][0].res.TTFT),
			f2(float64(llama[hw.GH200Name][0].res.GPUIdle)/float64(llama[hw.GH200Name][0].res.TTFT)),
			"significant GPU idle"),
	)
	return checks
}

func batchCols(batches []int64, extra ...string) []string {
	var cols []string
	for _, b := range batches {
		cols = append(cols, fmt.Sprintf("BS=%d", b))
	}
	return append(cols, extra...)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
