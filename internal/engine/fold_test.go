package engine

import (
	"fmt"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/sim"
)

// walkTime runs l on a fresh executor with no trace and returns the
// host clock at its end.
func walkTime(p *hw.Platform, l *lowering) sim.Time {
	ex := newExecutor(p, nil)
	ex.run(l)
	return ex.c
}

// checkFold asserts that folding l equals running it; a plain walk is
// checked with the layer repeat record and without it.
func checkFold(t *testing.T, p *hw.Platform, l lowering) {
	t.Helper()
	want := walkTime(p, &l)
	if got := foldTime(p, &l); got != want {
		t.Errorf("%s on %s (%s): fold %v != walk %v", l.g.Name, p.Name, l.name(), got, want)
	}
	if l.body != walkBody || l.plan != nil {
		return
	}
	flat := *l.g
	flat.Repeat = ops.Repeat{}
	l.g = &flat
	if got := foldTime(p, &l); got != want {
		t.Errorf("%s on %s: node-by-node fold %v != walk %v", l.g.Name, p.Name, got, want)
	}
}

// name labels a lowering in failure messages.
func (l *lowering) name() string {
	switch {
	case l.body == replayBody:
		return "replay"
	case l.body == listBody:
		return l.op
	case l.plan != nil:
		return fmt.Sprintf("walk, chains of %d", l.plan.l)
	}
	return "walk"
}

// checkPrefillFold asserts that the fold equals the walk for every
// lowering of prefill graph g, built with attention attn: each mode
// that runs that attention and, for eager attention, both fusion
// applications at chain lengths 2 and 4.
func checkPrefillFold(t *testing.T, p *hw.Platform, g *ops.Graph, attn models.AttnImpl) {
	t.Helper()
	for _, mode := range Modes() {
		if mode.attention() != attn {
			continue
		}
		l, err := lower(mode, g)
		if err != nil {
			t.Fatal(err)
		}
		checkFold(t, p, l)
	}
	if attn != models.AttnEager {
		return
	}
	for _, n := range []int{2, 4} {
		plan, err := planChains(g, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []FusionApplication{LaunchSavingsOnly, FullRegionFusion} {
			l, err := lowerFused(g, plan, app)
			if err != nil {
				t.Fatal(err)
			}
			checkFold(t, p, l)
		}
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
// run bit for bit on every catalog model and platform, with eager and
// flash attention, over a batch grid and a length grid of bucket and
// non-bucket lengths. Prefill is checked under every lowering: the
// eager walk, the three compiled modes and both fusion applications.
// Prefill runs up to each model's MaxSeq (the encoders' 512 and 514
// included); decode, an eager walk, runs past it.
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
						checkPrefillFold(t, p, g, attn)
					}
					if m.Kind != models.Decoder {
						continue
					}
					for _, kv := range append(foldLengths, foldDecodeLong) {
						g, err := models.BuildDecodeStep(m, b, kv, attn)
						if err != nil {
							t.Fatal(err)
						}
						checkFold(t, p, lowering{g: g})
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
	if want := foldTime(sm.Platform, &lowering{g: g}); got != want {
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

// FuzzFoldMatchesWalk: the fold equals the executor's run for any
// catalog model, platform, attention, batch and length. Prefill lengths
// wrap into [1, MaxSeq]; decode lengths are not limited, and an encoder
// draws a prefill. A prefill draw checks every lowering of its
// attention, as TestFoldMatchesWalk does. A decode draw also checks the
// step oracle's partial evaluation at the length and at a shorter one,
// the second miss reusing the first's part spans.
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
		if !decode {
			checkPrefillFold(t, p, g, attn)
			return
		}
		checkFold(t, p, lowering{g: g})
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
