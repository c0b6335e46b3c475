package engine

import (
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/sim"
)

// walkTime runs g through the executor's eager walk on a fresh runtime
// with no trace and returns the host clock at its end.
func walkTime(p *hw.Platform, g *ops.Graph) sim.Time {
	ex := newExecutor(Request{Platform: p}, nil)
	ex.runEager(g)
	return ex.rt.CPU.Now()
}

// checkFold asserts that folding g equals walking it, with the layer
// repeat record and without it.
func checkFold(t *testing.T, p *hw.Platform, g *ops.Graph) {
	t.Helper()
	want := walkTime(p, g)
	if got := eagerTime(p, g); got != want {
		t.Errorf("%s on %s: fold %v != walk %v", g.Name, p.Name, got, want)
	}
	flat := *g
	flat.Repeat = ops.Repeat{}
	if got := eagerTime(p, &flat); got != want {
		t.Errorf("%s on %s: node-by-node fold %v != walk %v", g.Name, p.Name, got, want)
	}
}

// TestFoldMatchesWalk: the step oracle's fold equals the executor's
// eager walk bit for bit on every catalog model and platform, with
// eager and flash attention, over a batch grid and a length grid of
// bucket and non-bucket lengths. Prefill runs up to each model's
// MaxSeq (the encoders' 512 and 514 included); decode runs past it.
func TestFoldMatchesWalk(t *testing.T) {
	batches := []int64{1, 3, 7, 15, 31, 63}
	lengths := []int64{1, 17, 64, 100, 200, 333, 511, 1000, 2047, 5000}
	for _, p := range catalogPlatforms(t) {
		for _, name := range models.ModelNames() {
			m, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var prefill []int64
			for _, l := range lengths {
				if l < m.MaxSeq {
					prefill = append(prefill, l)
				}
			}
			prefill = append(prefill, m.MaxSeq)
			for _, attn := range []models.AttnImpl{models.AttnEager, models.AttnFlash} {
				for _, b := range batches {
					for _, s := range prefill {
						g, err := models.BuildPrefill(m, b, s, attn)
						if err != nil {
							t.Fatal(err)
						}
						checkFold(t, p, g)
					}
					if m.Kind != models.Decoder {
						continue
					}
					for _, kv := range append(lengths, 20000) {
						g, err := models.BuildDecodeStep(m, b, kv, attn)
						if err != nil {
							t.Fatal(err)
						}
						checkFold(t, p, g)
					}
				}
			}
		}
	}
}

// FuzzFoldMatchesWalk: the fold equals the eager walk for any catalog
// model, platform, attention, batch and length. Prefill lengths wrap
// into [1, MaxSeq]; decode lengths are not limited, and an encoder
// draws a prefill.
func FuzzFoldMatchesWalk(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, false, uint16(1), uint32(512))
	f.Add(uint8(3), uint8(2), true, true, uint16(8), uint32(513))
	f.Add(uint8(1), uint8(3), false, true, uint16(63), uint32(514))
	f.Add(uint8(7), uint8(1), true, false, uint16(200), uint32(100000))
	names, plats := models.ModelNames(), catalogPlatforms(f)
	f.Fuzz(func(t *testing.T, model, plat uint8, flash, decode bool, batch uint16, length uint32) {
		m, err := models.ByName(names[int(model)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		p := plats[int(plat)%len(plats)]
		b, l := int64(batch%256)+1, int64(length%(1<<20))+1
		attn := models.AttnEager
		if flash {
			attn = models.AttnFlash
		}
		var g *ops.Graph
		if decode && m.Kind == models.Decoder {
			g, err = models.BuildDecodeStep(m, b, l, attn)
		} else {
			g, err = models.BuildPrefill(m, b, (l-1)%m.MaxSeq+1, attn)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkFold(t, p, g)
	})
}
