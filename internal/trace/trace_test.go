package trace

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/skipsim/skip/internal/sim"
)

// buildSample emits a tiny but structurally complete trace: a parent op
// containing a child op containing a launch, plus the launched kernel.
func buildSample() *Trace {
	b := NewBuilder()
	b.Meta("model", "unit-test")
	b.Operator("aten::linear", 1, 0, 100)
	b.Operator("aten::addmm", 1, 10, 80)
	corr := b.NextCorrelation()
	b.Launch("cudaLaunchKernel", 1, 20, 25, corr)
	b.Kernel("gemm_fp16", 7, 60, 500, corr, 1e9, 2e6)
	b.Runtime("cudaDeviceSynchronize", 1, 100, 460)
	return b.Trace()
}

func TestBuilderProducesValidTrace(t *testing.T) {
	tr := buildSample()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(tr.Events) != 5 {
		t.Fatalf("got %d events", len(tr.Events))
	}
	if tr.Meta["model"] != "unit-test" {
		t.Error("meta lost")
	}
}

func TestEventContains(t *testing.T) {
	parent := &Event{Ts: 10, Dur: 100}
	inside := &Event{Ts: 50, Dur: 500} // start inside is all that matters
	before := &Event{Ts: 5, Dur: 2}
	atEnd := &Event{Ts: 110, Dur: 1}
	if !parent.Contains(inside) {
		t.Error("start-inside event should be contained")
	}
	if parent.Contains(before) {
		t.Error("earlier event should not be contained")
	}
	if parent.Contains(atEnd) {
		t.Error("event at exclusive end should not be contained")
	}
	if inside.End() != 550 {
		t.Errorf("End = %d", inside.End())
	}
}

func TestFilterAndKernels(t *testing.T) {
	tr := buildSample()
	if got := len(tr.Filter(CatOperator)); got != 2 {
		t.Errorf("operators = %d, want 2", got)
	}
	ks := tr.Kernels()
	if len(ks) != 1 || ks[0].Name != "gemm_fp16" {
		t.Errorf("Kernels = %+v", ks)
	}
	if ks[0].Stream != 7 || ks[0].TID != 1007 {
		t.Errorf("kernel stream/tid = %d/%d", ks[0].Stream, ks[0].TID)
	}
}

func TestSpan(t *testing.T) {
	tr := buildSample()
	start, end := tr.Span()
	if start != 0 || end != 560 {
		t.Errorf("Span = [%d,%d), want [0,560)", start, end)
	}
	empty := New()
	if s, e := empty.Span(); s != 0 || e != 0 {
		t.Errorf("empty Span = [%d,%d)", s, e)
	}
}

func TestValidateCatchesBrokenTraces(t *testing.T) {
	tr := New()
	tr.Append(Event{Name: "k", Cat: CatKernel, Ts: 0, Dur: 5, Correlation: 0})
	if tr.Validate() == nil {
		t.Error("kernel without correlation must fail")
	}

	tr = New()
	tr.Append(Event{Name: "k", Cat: CatKernel, Ts: 0, Dur: 5, Correlation: 9})
	if tr.Validate() == nil {
		t.Error("kernel with unmatched correlation must fail")
	}

	tr = New()
	tr.Append(Event{Name: "op", Cat: CatOperator, Ts: 0, Dur: -1})
	if tr.Validate() == nil {
		t.Error("negative duration must fail")
	}

	tr = New()
	tr.Append(Event{Name: "l", Cat: CatRuntime, Ts: 0, Dur: 1, Correlation: 3})
	tr.Append(Event{Name: "l", Cat: CatRuntime, Ts: 2, Dur: 1, Correlation: 3})
	tr.Append(Event{Name: "k", Cat: CatKernel, Ts: 5, Dur: 5, Correlation: 3})
	if tr.Validate() == nil {
		t.Error("duplicated correlation must fail")
	}

	// Launches 1, 2, 4 and kernels 1–4, each in increasing correlation
	// order: the allocation-free merge must still find kernel 3 alone.
	tr = New()
	for _, c := range []uint64{1, 2, 4} {
		tr.Append(Event{Name: "l", Cat: CatRuntime, Ts: sim.Time(c), Dur: 1, Correlation: c})
	}
	for c := uint64(1); c <= 4; c++ {
		tr.Append(Event{Name: "k", Cat: CatKernel, Ts: sim.Time(10 + c), Dur: 1, Correlation: c})
	}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "correlation 3 matched by 0") {
		t.Errorf("unmatched kernel among in-order launches: %v", err)
	}
}

func TestSortIsStable(t *testing.T) {
	tr := New()
	tr.Append(Event{Name: "b", Ts: 10})
	tr.Append(Event{Name: "a", Ts: 5})
	tr.Append(Event{Name: "c", Ts: 10})
	tr.Sort()
	names := []string{tr.Events[0].Name, tr.Events[1].Name, tr.Events[2].Name}
	if names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Errorf("sorted order = %v", names)
	}
}

// stableReference is the plain stable sort Trace.Sort must agree with.
func stableReference(ev []Event) []Event {
	want := slices.Clone(ev)
	slices.SortStableFunc(want, byTs)
	return want
}

// tiedEvents returns n events tagged by TID with their emission index,
// whose starts are offset + scale·d for d drawn from [0, distinct): few
// distinct values make heavy ties, a negative offset negative starts,
// and a scale near 2⁶² starts near both ends of the time range.
func tiedEvents(rng *rand.Rand, n, distinct int, offset, scale int64) []Event {
	ev := make([]Event, n)
	for i := range ev {
		ev[i] = Event{Name: "e", TID: i, Ts: sim.Time(offset + scale*int64(rng.Intn(distinct)))}
	}
	return ev
}

// TestSortMatchesStableReference: on random traces of 0–5000 events,
// with heavy start ties, negative starts and spans up to ±2⁶², Sort
// leaves exactly the order a stable comparison sort does.
func TestSortMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		distinct      int
		offset, scale int64
	}{
		{1, 0, 1},
		{3, 0, 1000},
		{50, -25_000, 1000},
		{1 << 20, -1 << 40, 1},
		{2, -1 << 62, 1 << 62},
		{5, -1 << 62, 1 << 61},
		{1 << 30, 1 << 62, -4},
	}
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 5000} {
		for _, c := range cases {
			ev := tiedEvents(rng, n, c.distinct, c.offset, c.scale)
			want := stableReference(ev)
			tr := &Trace{Events: ev}
			tr.Sort()
			if !slices.Equal(tr.Events, want) {
				t.Fatalf("n=%d %+v: Sort differs from the stable reference", n, c)
			}
			// Reversed input: every event moves.
			slices.Reverse(tr.Events)
			want = stableReference(tr.Events)
			tr.Sort()
			if !slices.Equal(tr.Events, want) {
				t.Fatalf("n=%d %+v reversed: Sort differs from the stable reference", n, c)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := buildSample()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		w, g := tr.Events[i], got.Events[i]
		if w.Name != g.Name || w.Cat != g.Cat || w.Ts != g.Ts || w.Dur != g.Dur ||
			w.TID != g.TID || w.Correlation != g.Correlation || w.Stream != g.Stream {
			t.Errorf("event %d mismatch:\n want %+v\n got  %+v", i, w, g)
		}
	}
	if got.Meta["model"] != "unit-test" {
		t.Error("meta did not round-trip")
	}
}

func TestJSONIsChromeShaped(t *testing.T) {
	tr := buildSample()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"cat":"kernel"`, `"cat":"cpu_op"`, `"correlation"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr := buildSample()
	if err := tr.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Errorf("loaded %d events, want %d", len(got.Events), len(tr.Events))
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("LoadFile of missing file should fail")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
}

func TestReadJSONSkipsNonCompleteEvents(t *testing.T) {
	doc := `{"traceEvents":[
	  {"name":"meta","cat":"__metadata","ph":"M","ts":0,"dur":0,"pid":1,"tid":0},
	  {"name":"op","cat":"cpu_op","ph":"X","ts":1.0,"dur":2.0,"pid":1,"tid":1}
	]}`
	tr, err := ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 || tr.Events[0].Name != "op" {
		t.Errorf("events = %+v", tr.Events)
	}
	// Microsecond float timestamps convert to ns.
	if tr.Events[0].Ts != 1000 || tr.Events[0].Dur != 2000 {
		t.Errorf("ts/dur = %d/%d, want 1000/2000", tr.Events[0].Ts, tr.Events[0].Dur)
	}
}

// Property: round-trip through JSON preserves every field we emit, for
// randomized traces.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		total := int(n%20) + 1
		for i := 0; i < total; i++ {
			ts := sim.Time(rng.Int63n(1e6))
			dur := sim.Time(rng.Int63n(1e4))
			switch rng.Intn(3) {
			case 0:
				b.Operator("op", 1, ts, dur)
			case 1:
				corr := b.NextCorrelation()
				b.Launch("cudaLaunchKernel", 1, ts, dur, corr)
				b.Kernel("k", rng.Intn(4), ts+dur, dur+1, corr, float64(rng.Intn(1000)), float64(rng.Intn(1000)))
			default:
				b.Runtime("cudaDeviceSynchronize", 1, ts, dur)
			}
		}
		tr := b.Trace()
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if tr.Events[i].Ts != got.Events[i].Ts || tr.Events[i].Dur != got.Events[i].Dur ||
				tr.Events[i].Correlation != got.Events[i].Correlation {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestNilBuilderRecordsNothing: a nil builder is a valid, silent
// builder, the trace-free mode the step-latency oracle runs in.
func TestNilBuilderRecordsNothing(t *testing.T) {
	var b *Builder
	b.Meta("platform", "x")
	b.Operator("aten::linear", 1, 0, 10)
	if c := b.NextCorrelation(); c != 0 {
		t.Errorf("nil builder NextCorrelation = %d, want 0", c)
	}
	b.Launch("cudaLaunchKernel", 1, 0, 5, 0)
	b.Runtime("cudaDeviceSynchronize", 1, 5, 5)
	b.Kernel("gemm", 7, 5, 10, 0, 1, 2)
	b.Memcpy("Memcpy HtoD", 7, 0, 3, 0, 4)
	if tr := b.Trace(); tr != nil {
		t.Errorf("nil builder Trace = %v, want nil", tr)
	}
}
