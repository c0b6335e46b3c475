package fusion_test

import (
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

// BenchmarkAnalyze measures chain mining at every standard length (one
// Fig. 7 column) over the kernel sequence of a llama-3.2-1B eager
// prefill trace (GH200, BS=1, seq 512).
func BenchmarkAnalyze(b *testing.B) {
	res, err := engine.Run(engine.Request{Platform: hw.GH200(), Model: models.Llama32_1B(), Batch: 1, Seq: 512, Mode: engine.Eager})
	if err != nil {
		b.Fatal(err)
	}
	seq := fusion.KernelSequence(res.Trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range fusion.StandardLengths() {
			if _, err := fusion.Analyze(seq, l); err != nil {
				b.Fatal(err)
			}
		}
	}
}
