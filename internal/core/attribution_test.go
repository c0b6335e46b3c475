package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

func TestAttributeHandTrace(t *testing.T) {
	// CPU busy [0,100); kernel [50,150): overlap 50, cpu-only 50,
	// gpu-only 50... window = IL = [0, 150).
	b := trace.NewBuilder()
	b.Operator("op", 1, 0, 100)
	b.Launch("cudaLaunchKernel", 1, 10, 5, 1)
	b.Kernel("k", 7, 50, 100, 1, 0, 0)
	a, err := Attribute(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if a.IL != 150 {
		t.Fatalf("IL = %d", a.IL)
	}
	if a.CPUOnly != 50 || a.Overlap != 50 || a.GPUOnly != 50 || a.Bubble != 0 {
		t.Errorf("attribution = %+v", a)
	}
	c, g, o, bub := a.Fractions()
	if c+g+o+bub < 0.999 || c+g+o+bub > 1.001 {
		t.Errorf("fractions sum to %f", c+g+o+bub)
	}
	if !strings.Contains(a.String(), "IL") {
		t.Error("String() should describe the window")
	}
}

func TestAttributeWithBubble(t *testing.T) {
	// CPU [0,20), kernel [60,100): bubble [20,60) = 40.
	b := trace.NewBuilder()
	b.Operator("op", 1, 0, 20)
	b.Launch("cudaLaunchKernel", 1, 5, 5, 1)
	b.Kernel("k", 7, 60, 40, 1, 0, 0)
	a, err := Attribute(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if a.Bubble != 40 {
		t.Errorf("bubble = %d, want 40", a.Bubble)
	}
	if a.CPUOnly != 20 || a.GPUOnly != 40 {
		t.Errorf("attribution = %+v", a)
	}
}

func TestAttributeSyncExcludedFromCPUBusy(t *testing.T) {
	// A sync span must count as idle host time (GPU-only while the
	// kernel runs).
	b := trace.NewBuilder()
	b.Operator("op", 1, 0, 10)
	b.Launch("cudaLaunchKernel", 1, 2, 5, 1)
	b.Kernel("k", 7, 10, 90, 1, 0, 0)
	b.Runtime("cudaDeviceSynchronize", 1, 10, 90)
	a, err := Attribute(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUOnly != 90 {
		t.Errorf("GPUOnly = %d, want 90 (sync is not host work)", a.GPUOnly)
	}
}

func TestAttributeDegenerate(t *testing.T) {
	b := trace.NewBuilder()
	b.Operator("op", 1, 0, 10)
	if _, err := Attribute(b.Trace()); err == nil {
		t.Error("kernel-free trace should fail")
	}
	var zero Attribution
	c, g, o, bub := zero.Fractions()
	if c != 0 || g != 0 || o != 0 || bub != 0 {
		t.Error("zero attribution fractions")
	}
}

func TestAttributionSumsToIL(t *testing.T) {
	// On a real simulated trace the four phases partition IL exactly.
	tr := handTrace()
	a, err := Attribute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.CPUOnly + a.GPUOnly + a.Overlap + a.Bubble; got != a.IL {
		t.Errorf("phases sum to %d, IL = %d", got, a.IL)
	}
}

// TestBusyIntervalsOrderFree: the union of spans does not depend on
// event order. A shuffled copy of a trace, whose spans take the sorting
// path, yields the intervals its sorted original merges in one pass:
// nested, overlapping, touching, disjoint and empty spans alike.
func TestBusyIntervalsOrderFree(t *testing.T) {
	spans := [][2]sim.Time{{0, 100}, {10, 20}, {50, 80}, {100, 30}, {200, 10}, {205, 0}, {205, 50}, {300, 5}, {305, 5}, {400, 1}}
	sorted := trace.New()
	for i, s := range spans {
		sorted.Append(trace.Event{Name: "op", Cat: trace.CatOperator, Ts: s[0], Dur: s[1], TID: i})
	}
	all := func(*trace.Event) bool { return true }
	want := busyIntervals(sorted, all)
	if len(want) != 4 || want[0] != (interval{0, 130}) || want[3] != (interval{400, 401}) {
		t.Fatalf("sorted union = %v", want)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20; k++ {
		shuffled := &trace.Trace{Events: slices.Clone(sorted.Events)}
		rng.Shuffle(len(spans), func(i, j int) {
			shuffled.Events[i], shuffled.Events[j] = shuffled.Events[j], shuffled.Events[i]
		})
		if got := busyIntervals(shuffled, all); !slices.Equal(got, want) {
			t.Fatalf("shuffle %d: union %v, want %v", k, got, want)
		}
	}
}
