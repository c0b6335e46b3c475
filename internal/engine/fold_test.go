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

// The batch and length grids of the fold tests: bucket and non-bucket
// lengths, each model's MaxSeq added for prefill and foldDecodeLong
// for decode.
var (
	foldBatches = []int64{1, 3, 7, 15, 31, 63}
	foldLengths = []int64{1, 17, 64, 100, 200, 333, 511, 1000, 2047, 5000}
)

const foldDecodeLong = 20000

// TestFoldMatchesWalk: the step oracle's fold equals the executor's
// eager walk bit for bit on every catalog model and platform, with
// eager and flash attention, over a batch grid and a length grid of
// bucket and non-bucket lengths. Prefill runs up to each model's
// MaxSeq (the encoders' 512 and 514 included); decode runs past it.
func TestFoldMatchesWalk(t *testing.T) {
	for _, p := range catalogPlatforms(t) {
		for _, name := range models.ModelNames() {
			m, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var prefill []int64
			for _, l := range foldLengths {
				if l < m.MaxSeq {
					prefill = append(prefill, l)
				}
			}
			prefill = append(prefill, m.MaxSeq)
			for _, attn := range []models.AttnImpl{models.AttnEager, models.AttnFlash} {
				for _, b := range foldBatches {
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
					for _, kv := range append(foldLengths, foldDecodeLong) {
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

// checkDecodeStep asserts that sm's decode miss at (b, kv), the
// partial evaluation, equals folding the whole decode graph. sm's
// bucket is 1, so the miss is priced at kv itself.
func checkDecodeStep(t *testing.T, sm *StepModel, b, kv int64) {
	t.Helper()
	g, err := models.BuildDecodeStep(sm.Model, b, kv, sm.Mode.attention())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sm.DecodeStep(b, kv)
	if err != nil {
		t.Fatal(err)
	}
	if want := eagerTime(sm.Platform, g); got != want {
		t.Errorf("%s on %s: partial evaluation %v != graph fold %v", g.Name, sm.Platform.Name, got, want)
	}
}

// TestStepModelDecodeMatchesGraph: a decode miss, which folds only the
// attention between cached per-batch part spans, equals folding the
// whole BuildDecodeStep graph bit for bit on TestFoldMatchesWalk's
// decode grid. One model fills every length at a batch before the next
// batch, so all but the first miss at each batch reuse its cached
// spans.
func TestStepModelDecodeMatchesGraph(t *testing.T) {
	for _, p := range catalogPlatforms(t) {
		for _, name := range models.ModelNames() {
			m, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind != models.Decoder {
				continue
			}
			for _, mode := range []Mode{Eager, Flash} {
				sm, err := NewStepModel(p, m, mode, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range foldBatches {
					for _, kv := range append(foldLengths, foldDecodeLong) {
						checkDecodeStep(t, sm, b, kv)
					}
				}
			}
		}
	}
}

// FuzzFoldMatchesWalk: the fold equals the eager walk for any catalog
// model, platform, attention, batch and length. Prefill lengths wrap
// into [1, MaxSeq]; decode lengths are not limited, and an encoder
// draws a prefill. A decode draw also checks the step oracle's partial
// evaluation at the length and at a shorter one, the second miss
// reusing the first's part spans.
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
		decode = decode && m.Kind == models.Decoder
		var g *ops.Graph
		if decode {
			g, err = models.BuildDecodeStep(m, b, l, attn)
		} else {
			g, err = models.BuildPrefill(m, b, (l-1)%m.MaxSeq+1, attn)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkFold(t, p, g)
		if !decode {
			return
		}
		mode := Eager
		if flash {
			mode = Flash
		}
		sm, err := NewStepModel(p, m, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeStep(t, sm, b, l)
		checkDecodeStep(t, sm, b, l/2+1)
	})
}
