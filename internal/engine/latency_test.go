package engine

import (
	"sync"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

func TestStepModelCachesByBucket(t *testing.T) {
	sm, err := NewStepModel(hw.GH200(), models.GPT2(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sm.DecodeStep(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sm.DecodeStep(4, 120)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("kvLen 100 and 120 share the 128 bucket: %v vs %v", a, b)
	}
	if sm.CachedRuns() != 1 {
		t.Errorf("cached runs = %d, want 1 (one bucket)", sm.CachedRuns())
	}
	// kvLen 200 lands in the 256 bucket: a distinct engine run, even if
	// its duration coincides on CPU-dispatch-bound platforms.
	if _, err := sm.DecodeStep(4, 200); err != nil {
		t.Fatal(err)
	}
	if sm.CachedRuns() != 2 {
		t.Errorf("cached runs = %d, want 2", sm.CachedRuns())
	}
	if _, err := sm.DecodeStep(4, 256); err != nil {
		t.Fatal(err)
	}
	if sm.CachedRuns() != 2 {
		t.Errorf("cached runs = %d after kv=256 re-hit, want 2", sm.CachedRuns())
	}
}

// catalogPlatforms returns every cataloged platform, the
// unified-physical-memory one included.
func catalogPlatforms(t testing.TB) []*hw.Platform {
	t.Helper()
	var out []*hw.Platform
	for _, name := range hw.PlatformNames() {
		p, err := hw.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// decoderModels returns every decoder-only model in the catalog.
func decoderModels(t testing.TB) []*models.Config {
	t.Helper()
	var out []*models.Config
	for _, name := range models.ModelNames() {
		m, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == models.Decoder {
			out = append(out, m)
		}
	}
	return out
}

// TestStepModelPrefillMatchesRun: the oracle's trace-free prefill equals
// Run's traced TTFT bit for bit on every platform, mode and catalog
// model, encoders included (at lengths within their 512-token limit):
// the legacy static/greedy serving walk prices its batches through
// this oracle. Bucket 1 keeps each length unquantized.
func TestStepModelPrefillMatchesRun(t *testing.T) {
	for _, p := range catalogPlatforms(t) {
		for _, name := range models.ModelNames() {
			m, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			seqs := []int64{64, 200, 1024}
			if m.Kind == models.Encoder {
				seqs = []int64{64, 200, 512}
			}
			for _, mode := range Modes() {
				sm, err := NewStepModel(p, m, mode, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, batch := range []int64{1, 3, 16} {
					for _, seq := range seqs {
						got, err := sm.Prefill(batch, seq)
						if err != nil {
							t.Fatal(err)
						}
						res, err := Run(Request{Platform: p, Model: m, Batch: batch, Seq: seq, Mode: mode})
						if err != nil {
							t.Fatal(err)
						}
						if got != res.TTFT {
							t.Errorf("%s %s %v bs%d seq%d: trace-free prefill %v != Run TTFT %v",
								p.Name, m.Name, mode, batch, seq, got, res.TTFT)
						}
					}
				}
			}
		}
	}
}

// TestStepModelDecodeMatchesTraced: the oracle's trace-free decode step
// equals the same step executed through a real trace builder, measured
// both as the host clock and as the recorded trace's span.
func TestStepModelDecodeMatchesTraced(t *testing.T) {
	for _, p := range catalogPlatforms(t) {
		for _, m := range decoderModels(t) {
			for _, mode := range Modes() {
				sm, err := NewStepModel(p, m, mode, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, batch := range []int64{1, 3, 16} {
					for _, kv := range []int64{64, 200, 1024} {
						got, err := sm.DecodeStep(batch, kv)
						if err != nil {
							t.Fatal(err)
						}
						g, err := models.BuildDecodeStep(m, batch, kv, mode.attention())
						if err != nil {
							t.Fatal(err)
						}
						b := trace.NewBuilder()
						ex := newExecutor(p, b)
						ex.run(&lowering{g: g})
						start, end := b.Trace().Span()
						if now := ex.c; got != now || got != end-start {
							t.Errorf("%s %s %v bs%d kv%d: trace-free decode %v, traced clock %v, traced span %v",
								p.Name, m.Name, mode, batch, kv, got, now, end-start)
						}
					}
				}
			}
		}
	}
}

func TestStepModelDecodeScalesWithBatchAndKV(t *testing.T) {
	sm, err := NewStepModel(hw.GH200(), models.Llama32_1B(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := sm.DecodeStep(1, 512)
	if err != nil {
		t.Fatal(err)
	}
	d16, err := sm.DecodeStep(16, 512)
	if err != nil {
		t.Fatal(err)
	}
	if d16 <= d1 {
		t.Errorf("decode at BS=16 (%v) should exceed BS=1 (%v)", d16, d1)
	}
	// Batching must amortize: 16 sequences in one step beat 16 steps.
	if d16 >= 16*d1 {
		t.Errorf("batched decode (%v) should beat 16 serial steps (%v)", d16, 16*d1)
	}
	// On GH200's slow host, eager decode is dispatch-bound: a longer KV
	// cache cannot shrink the step (it often doesn't grow it either —
	// the GPU-side attention cost hides under CPU launch time, the
	// paper's CPU-bound regime).
	dLong, err := sm.DecodeStep(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if dLong < d1 {
		t.Errorf("decode at kv=4096 (%v) must not undercut kv=512 (%v)", dLong, d1)
	}
}

func TestStepModelValidation(t *testing.T) {
	if _, err := NewStepModel(nil, models.GPT2(), Eager, 0); err == nil {
		t.Error("nil platform should fail")
	}
	sm, err := NewStepModel(hw.GH200(), models.BertBaseUncased(), Eager, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.DecodeStep(1, 64); err == nil {
		t.Error("encoder decode step should fail")
	}
	if _, err := sm.Prefill(0, 64); err == nil {
		t.Error("zero batch should fail")
	}
	sm2, _ := NewStepModel(hw.GH200(), models.GPT2(), Eager, 0)
	if sm2.Bucket != 64 {
		t.Errorf("default bucket = %d, want 64", sm2.Bucket)
	}
	if _, err := sm2.DecodeStep(2, 0); err == nil {
		t.Error("zero kvLen should fail")
	}
}

// TestStepModelCacheHitMatchesColdCompute pins the cache transparency
// invariant: a latency served from the cache must be byte-identical to
// the same configuration computed cold on a fresh model.
func TestStepModelCacheHitMatchesColdCompute(t *testing.T) {
	warm, err := NewStepModel(hw.GH200(), models.GPT2(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	coldDecode := func() sim.Time {
		cold, err := NewStepModel(hw.GH200(), models.GPT2(), Eager, 64)
		if err != nil {
			t.Fatal(err)
		}
		d, err := cold.DecodeStep(4, 100)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	first, err := warm.DecodeStep(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := warm.DecodeStep(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CachedRuns() != 1 {
		t.Fatalf("cached runs = %d, want 1: the repeat must be a hit", warm.CachedRuns())
	}
	if hit != first || hit != coldDecode() {
		t.Errorf("cache hit %v, first compute %v, cold compute %v: all must match", hit, first, coldDecode())
	}

	pFirst, err := warm.Prefill(2, 96)
	if err != nil {
		t.Fatal(err)
	}
	pHit, err := warm.Prefill(2, 96)
	if err != nil {
		t.Fatal(err)
	}
	coldP, err := NewStepModel(hw.GH200(), models.GPT2(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	pCold, err := coldP.Prefill(2, 96)
	if err != nil {
		t.Fatal(err)
	}
	if pHit != pFirst || pHit != pCold {
		t.Errorf("prefill cache hit %v, first %v, cold %v: all must match", pHit, pFirst, pCold)
	}
}

// grid queries sm over a batch × length grid and returns the prefill
// and decode latencies in grid order.
func grid(sm *StepModel) ([]sim.Time, error) {
	var out []sim.Time
	for _, b := range []int64{1, 3, 8} {
		for _, n := range []int64{40, 64, 200, 700} {
			p, err := sm.Prefill(b, n)
			if err != nil {
				return nil, err
			}
			d, err := sm.DecodeStep(b, n)
			if err != nil {
				return nil, err
			}
			out = append(out, p, d)
		}
	}
	return out, nil
}

func oracleGrid(t *testing.T, sm *StepModel) []sim.Time {
	t.Helper()
	out, err := grid(sm)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func equalTimes(a, b []sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSharedStepModelMatchesPrivate: the shared oracle serves exactly
// what a private one computes, and equal configurations share one
// model whatever the bucket spelling.
func TestSharedStepModelMatchesPrivate(t *testing.T) {
	shared, err := SharedStepModel(hw.GH200(), models.GPT2(), Eager, 0)
	if err != nil {
		t.Fatal(err)
	}
	private, err := NewStepModel(hw.GH200(), models.GPT2(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTimes(oracleGrid(t, shared), oracleGrid(t, private)) {
		t.Error("shared and private step models disagree over the grid")
	}
	again, err := SharedStepModel(hw.GH200(), models.GPT2(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	if again != shared {
		t.Error("bucket 0 and bucket 64 resolve to the same configuration but got different shared models")
	}
	if _, err := SharedStepModel(nil, models.GPT2(), Eager, 0); err == nil {
		t.Error("nil platform should fail")
	}
}

// TestSharedStepModelKeysByValue: a platform that keeps a catalog name
// but changes one parameter gets its own oracle, and mutating the
// caller's platform after the fetch cannot reach the shared entry.
func TestSharedStepModelKeysByValue(t *testing.T) {
	base := hw.IntelH100()
	slow := hw.IntelH100()
	slow.CPU.SingleThreadScore /= 2
	a, err := SharedStepModel(base, models.GPT2(), Eager, 128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedStepModel(slow, models.GPT2(), Eager, 128)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("platforms differing only in SingleThreadScore share one oracle")
	}
	fast, err := a.DecodeStep(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	slower, err := b.DecodeStep(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if slower <= fast {
		t.Errorf("half the single-thread score should slow eager decode: %v vs %v", slower, fast)
	}

	before := oracleGrid(t, a)
	base.CPU.SingleThreadScore *= 4
	base.Name = "renamed"
	if a.Platform.CPU.SingleThreadScore == base.CPU.SingleThreadScore || a.Platform.Name == base.Name {
		t.Fatal("the shared entry aliases the caller's platform")
	}
	fresh, err := NewStepModel(hw.IntelH100(), models.GPT2(), Eager, 128)
	if err != nil {
		t.Fatal(err)
	}
	if after := oracleGrid(t, a); !equalTimes(after, before) || !equalTimes(after, oracleGrid(t, fresh)) {
		t.Error("mutating the caller's platform changed the shared oracle's latencies")
	}
	again, err := SharedStepModel(hw.IntelH100(), models.GPT2(), Eager, 128)
	if err != nil {
		t.Fatal(err)
	}
	if again != a {
		t.Error("an equal platform value did not find the existing shared entry")
	}
}

// TestStepModelConcurrentFill: goroutines filling one model at once
// agree with a serially filled model, and every key is computed once.
// Run under -race, this also proves the caches are guarded.
func TestStepModelConcurrentFill(t *testing.T) {
	sm, err := NewStepModel(hw.GH200(), models.GPT2(), Flash, 64)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewStepModel(hw.GH200(), models.GPT2(), Flash, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleGrid(t, serial)
	runs := OracleRuns()
	const workers = 4
	got := make([][]sim.Time, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = grid(sm)
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !equalTimes(g, want) {
			t.Errorf("worker %d disagrees with the serial fill", w)
		}
	}
	if sm.CachedRuns() != serial.CachedRuns() {
		t.Errorf("concurrent fill cached %d keys, serial %d", sm.CachedRuns(), serial.CachedRuns())
	}
	if d := OracleRuns() - runs; d != int64(serial.CachedRuns()) {
		t.Errorf("oracle run counter moved by %d, want %d: each key once", d, serial.CachedRuns())
	}
}

// TestStepModelConcurrentHitsAndGrowth: goroutines interleave warm hits
// with misses that add new batch rows and new pages to both phases'
// tables while other goroutines read them. Every latency matches a
// serially filled model and every new key is computed once. Run under
// -race, this checks the lock-free hit path's publication order.
func TestStepModelConcurrentHitsAndGrowth(t *testing.T) {
	type key struct{ batch, tokens int64 }
	var keys []key
	for _, b := range []int64{1, 2, 5, 9, 17, 33} {
		// Bucket 8: lengths up to GPT-2's MaxSeq fill two pages of a
		// row, and the decode-only lengths reach page 39.
		for _, n := range []int64{1, 8, 9, 100, 511, 513, 1000, 1024, 2000, 20000} {
			keys = append(keys, key{b, n})
		}
	}
	lookup := func(sm *StepModel, k key) (p, d sim.Time, err error) {
		if k.tokens <= sm.Model.MaxSeq {
			if p, err = sm.Prefill(k.batch, k.tokens); err != nil {
				return 0, 0, err
			}
		}
		d, err = sm.DecodeStep(k.batch, k.tokens)
		return p, d, err
	}
	serial, err := NewStepModel(hw.GH200(), models.GPT2(), Flash, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantP, wantD := make([]sim.Time, len(keys)), make([]sim.Time, len(keys))
	for i, k := range keys {
		if wantP[i], wantD[i], err = lookup(serial, k); err != nil {
			t.Fatal(err)
		}
	}
	sm, err := NewStepModel(hw.GH200(), models.GPT2(), Flash, 8)
	if err != nil {
		t.Fatal(err)
	}
	const warm = 3 // keys[:warm] are filled before the goroutines start
	for _, k := range keys[:warm] {
		if _, _, err := lookup(sm, k); err != nil {
			t.Fatal(err)
		}
	}
	runs, warmRuns := OracleRuns(), sm.CachedRuns()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at its own offset, so the workers race
			// to fill different keys while others hit them.
			for j := range keys {
				i := (j + w*len(keys)/workers) % len(keys)
				for _, at := range []int{i, j % warm} {
					p, d, err := lookup(sm, keys[at])
					if err != nil {
						t.Error(err)
						return
					}
					if p != wantP[at] || d != wantD[at] {
						t.Errorf("worker %d: %+v = (%v, %v), serial fill gives (%v, %v)", w, keys[at], p, d, wantP[at], wantD[at])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if sm.CachedRuns() != serial.CachedRuns() {
		t.Errorf("concurrent fill cached %d keys, serial %d", sm.CachedRuns(), serial.CachedRuns())
	}
	if d, want := OracleRuns()-runs, int64(serial.CachedRuns()-warmRuns); d != want {
		t.Errorf("oracle run counter moved by %d, want %d: each new key once", d, want)
	}
}

// TestPrefillBucketClampsToMaxSeq: a legal prefill length whose bucket
// would round past the model's MaxSeq runs at MaxSeq instead of
// failing, and equals a direct engine run at MaxSeq. Lengths past
// MaxSeq still fail, and keys below it keep their bucketed value.
func TestPrefillBucketClampsToMaxSeq(t *testing.T) {
	for _, c := range []struct {
		model       *models.Config
		bucket, seq int64
	}{
		{models.XLMRobertaBase(), 64, 513}, // 576 > 514
		{models.GPT2(), 100, 1023},         // 1100 > 1024
	} {
		sm, err := NewStepModel(hw.GH200(), c.model, Eager, c.bucket)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.Prefill(1, c.seq)
		if err != nil {
			t.Fatalf("%s: Prefill(1, %d) with bucket %d: %v", c.model.Name, c.seq, c.bucket, err)
		}
		res, err := Run(Request{Platform: hw.GH200(), Model: c.model, Batch: 1, Seq: c.model.MaxSeq, Mode: Eager})
		if err != nil {
			t.Fatal(err)
		}
		if got != res.TTFT {
			t.Errorf("%s: Prefill(1, %d) = %v, want the MaxSeq run's %v", c.model.Name, c.seq, got, res.TTFT)
		}
		if at, err := sm.Prefill(1, c.model.MaxSeq); err != nil || at != got {
			t.Errorf("%s: Prefill(1, MaxSeq) = %v, %v; want the same key, %v", c.model.Name, at, err, got)
		}
		if _, err := sm.Prefill(1, c.model.MaxSeq+1); err == nil {
			t.Errorf("%s: Prefill(1, MaxSeq+1) succeeded, want an error", c.model.Name)
		}
		below := c.model.MaxSeq - c.bucket - 1
		if k, want := sm.bucketTokens(below, c.model.MaxSeq), (below+c.bucket-1)/c.bucket*c.bucket; k != want {
			t.Errorf("%s: bucketTokens(%d) = %d, want the unclamped %d", c.model.Name, below, k, want)
		}
	}
}

// BenchmarkStepModelMiss times one oracle miss: each iteration fills one
// key on a fresh private model (llama-3.2-1B on GH200, eager, the
// benchmark fleets' configuration). decode-seen-batch times a decode
// miss at a batch the model has already priced, which folds only the
// attention: one model, the key forgotten after each fill.
func BenchmarkStepModelMiss(b *testing.B) {
	for _, phase := range []string{"prefill", "decode"} {
		b.Run(phase, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sm, err := NewStepModel(hw.GH200(), models.Llama32_1B(), Eager, 64)
				if err != nil {
					b.Fatal(err)
				}
				if phase == "prefill" {
					benchLatency, err = sm.Prefill(1, 512)
				} else {
					benchLatency, err = sm.DecodeStep(8, 512)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("decode-seen-batch", func(b *testing.B) {
		sm, err := NewStepModel(hw.GH200(), models.Llama32_1B(), Eager, 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sm.DecodeStep(8, 64); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if benchLatency, err = sm.DecodeStep(8, 512); err != nil {
				b.Fatal(err)
			}
			sm.forgetDecode(8, 512)
		}
	})
}

// BenchmarkStepModelHit times one warm lookup in either phase
// (llama-3.2-1B on GH200, eager). decode-parallel runs the decode hit
// on every GOMAXPROCS goroutine at once: the hit path takes no lock and
// writes nothing, so the goroutines do not wait on one another.
func BenchmarkStepModelHit(b *testing.B) {
	sm, err := NewStepModel(hw.GH200(), models.Llama32_1B(), Eager, 64)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sm.Prefill(1, 512); err != nil {
		b.Fatal(err)
	}
	if _, err := sm.DecodeStep(8, 512); err != nil {
		b.Fatal(err)
	}
	for _, phase := range []string{"decode", "prefill"} {
		b.Run(phase, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if phase == "prefill" {
					benchLatency, err = sm.Prefill(1, 512)
				} else {
					benchLatency, err = sm.DecodeStep(8, 512)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("decode-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := sm.DecodeStep(8, 512); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// forgetDecode empties the decode slot of (batch, kvLen), so the next
// DecodeStep there misses as if the key had never been filled.
func (sm *StepModel) forgetDecode(batch, kvLen int64) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	idx := (kvLen - 1) / sm.Bucket
	if _, ok := sm.decode.get(batch, idx); !ok {
		return
	}
	pg := at(at(&sm.decode.rows, batch-1), idx/pageSlots)
	pg.filled.Store(pg.filled.Load() &^ (1 << (idx % pageSlots)))
	sm.decode.keys--
}

// benchLatency keeps the benchmarked lookups observable to the compiler.
var benchLatency sim.Time
