package bench

import (
	"fmt"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

func init() {
	register(&Experiment{
		ID:    "ext7-tc-projection",
		Title: "Tightly-coupled projection: MI300A-class APU vs GH200 vs LC (paper future work §VI)",
		Paper: "§VI plans MI300A evaluation; §II-B predicts physically unified memory removes transfer overheads",
		Run:   runExtTCProjection,
	})
}

func runExtTCProjection() (*Result, error) {
	res := &Result{ID: "ext7-tc-projection", Title: "Extension 7"}
	plats := []*hw.Platform{hw.IntelH100(), hw.GH200(), hw.MI300A()}

	for _, name := range []string{"bert-base-uncased", "llama-3.2-1B"} {
		model, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		batches := encoderBatches
		if model.Kind == models.Decoder {
			batches = decoderBatches
		}
		tbl := Table{
			Title:   fmt.Sprintf("TTFT (ms) vs batch — %s, with the TC projection", name),
			Columns: append([]string{"Platform"}, batchCols(batches)...),
		}
		ttft := map[string][]float64{}
		for _, p := range plats {
			row := []string{p.Name + " (" + p.Coupling.String() + ")"}
			for _, bs := range batches {
				r, err := engine.Time(engine.Request{Platform: p, Model: model, Batch: bs, Seq: 512, Mode: engine.Eager})
				if err != nil {
					return nil, err
				}
				ttft[p.Name] = append(ttft[p.Name], r.TTFT.Milliseconds())
				row = append(row, ms(r.TTFT.Milliseconds()))
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		res.Tables = append(res.Tables, tbl)

		last := len(batches) - 1
		res.Checks = append(res.Checks,
			checkBool(name+": TC beats CC at BS=1 (faster on-package CPU)",
				ttft[hw.MI300AName][0] < ttft[hw.GH200Name][0],
				fmt.Sprintf("%.1f vs %.1f ms", ttft[hw.MI300AName][0], ttft[hw.GH200Name][0]),
				"TC fixes the CC low-batch weakness"),
			checkBool(name+": TC competitive with CC at large batch",
				ttft[hw.MI300AName][last] < ttft[hw.GH200Name][last]*1.25,
				fmt.Sprintf("%.1f vs %.1f ms", ttft[hw.MI300AName][last], ttft[hw.GH200Name][last]),
				"unified HBM sustains bandwidth"),
			checkBool(name+": TC beats LC at large batch",
				ttft[hw.MI300AName][last] < ttft[hw.IntelH100Name][last],
				fmt.Sprintf("%.1f vs %.1f ms", ttft[hw.MI300AName][last], ttft[hw.IntelH100Name][last]),
				"coupling trend holds"),
		)
	}
	res.Tables[len(res.Tables)-1].Notes = append(res.Tables[len(res.Tables)-1].Notes,
		"MI300A parameters are a projection (DESIGN.md): physically unified HBM (no H2D),",
		"on-package Zen4 cores near x86 single-thread speed, CDNA3-class throughput")
	return res, nil
}
