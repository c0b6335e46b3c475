package engine

import (
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

var benchResult *Result

// BenchmarkRun times one traced Run per mode (llama-3.2-1B on GH200,
// batch 4, seq 512): building the prefill graph, lowering it, executing
// it into a trace builder and merging the trace into start order.
func BenchmarkRun(b *testing.B) {
	for _, mode := range Modes() {
		b.Run(mode.String(), func(b *testing.B) {
			req := Request{Platform: hw.GH200(), Model: models.Llama32_1B(), Batch: 4, Seq: 512, Mode: mode}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(req)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
		})
	}
}
