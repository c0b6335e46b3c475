package trace

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

// emitter drives a Builder as the simulator's executor does, one host
// clock c feeding one FIFO stream that drains at f, from a byte
// program. Alongside, it keeps the reference: every event appended when
// it is recorded, an operator when it ends.
type emitter struct {
	b    *Builder
	ref  []Event
	open []int // Begin handles, outermost first
	c, f sim.Time
	id   int // names events uniquely, so a misplaced one shows
}

func (em *emitter) name() string {
	em.id++
	return strconv.Itoa(em.id)
}

func (em *emitter) emit(e Event) { em.ref = append(em.ref, e) }

func (em *emitter) end() {
	op := em.open[len(em.open)-1]
	em.open = em.open[:len(em.open)-1]
	em.b.End(op, em.c)
	e := em.b.t.Events[op]
	em.emit(e)
}

// launch issues one launch call of cpu host time whose device work of d
// starts lag after the call or once the stream drains.
func (em *emitter) launch(cpu, lag, d sim.Time, copy bool) {
	t, start := em.c, max(em.f, em.c+lag)
	em.c, em.f = em.c+cpu, start+d
	corr := em.b.NextCorrelation()
	call, work := "cudaLaunchKernel", Event{Name: em.name(), Cat: CatKernel, Ts: start, Dur: d, TID: streamTID(7), Stream: 7, Correlation: corr}
	if copy {
		call, work.Cat = "cudaMemcpyAsync", CatMemcpy
	}
	em.b.Launch(call, 1, t, cpu, corr)
	em.emit(Event{Name: call, Cat: CatRuntime, Ts: t, Dur: cpu, TID: 1, Correlation: corr})
	if copy {
		em.b.Memcpy(work.Name, 7, start, d, corr, 0)
	} else {
		em.b.Kernel(work.Name, 7, start, d, corr, 0, 0)
	}
	em.emit(work)
}

// run plays a program. Each byte picks an act from its low three bits
// and two durations from the rest, both of which can be zero: a zero
// dispatch starts an operator's first child with it, a zero launch
// call or lag ties a launch with the next host event or its kernel, and
// a replay's node launches take no time. The first byte's low bit makes
// every dispatch and replay call take time, as on the simulator's
// platforms; its second bit lets acts place whole operators back in
// time, as hand-built traces do.
func (em *emitter) run(prog []byte) {
	var executorLike, handBuilt bool
	if len(prog) > 0 {
		executorLike, handBuilt = prog[0]&1 != 0, prog[0]&2 != 0
		prog = prog[1:]
	}
	for _, p := range prog {
		d1, d2 := sim.Time(p>>3&3), sim.Time(p>>5)
		if executorLike {
			d1++
		}
		switch p & 7 {
		case 0, 1: // begin an operator and dispatch it
			em.open = append(em.open, em.b.Begin(em.name(), 1, em.c))
			em.c += d1
		case 2:
			if len(em.open) > 0 {
				em.end()
			}
		case 3:
			em.launch(d1, d2, d2/2, false)
		case 4:
			em.launch(d1, d1, d2, true)
		case 5: // synchronize
			t := em.c
			em.c = max(em.c, em.f)
			em.b.Runtime("cudaDeviceSynchronize", 1, t, em.c-t)
			em.emit(Event{Name: "cudaDeviceSynchronize", Cat: CatRuntime, Ts: t, Dur: em.c - t, TID: 1})
		case 6: // a CUDA-graph replay of d2 % 4 back-to-back kernels
			t, n := em.c, int(d2%4)
			at := max(em.f, t+d1)
			em.c += d1
			corr := em.b.NextCorrelation()
			em.b.Launch("cudaGraphLaunch", 1, t, d1, corr)
			em.emit(Event{Name: "cudaGraphLaunch", Cat: CatRuntime, Ts: t, Dur: d1, TID: 1, Correlation: corr})
			em.open = append(em.open, em.b.Begin("CUDAGraphReplay", 1, t))
			for i := 0; i < n; i++ {
				corr := em.b.NextCorrelation()
				em.b.Launch("cudaGraphNodeLaunch", 1, em.c, 0, corr)
				em.emit(Event{Name: "cudaGraphNodeLaunch", Cat: CatRuntime, Ts: em.c, TID: 1, Correlation: corr})
				k := Event{Name: em.name(), Cat: CatKernel, Ts: at, Dur: d1 / 2, TID: streamTID(7), Stream: 7, Correlation: corr}
				em.b.Kernel(k.Name, 7, k.Ts, k.Dur, corr, 0, 0)
				em.emit(k)
				at += k.Dur
			}
			em.f = max(em.f, at)
			em.end()
		case 7:
			if handBuilt {
				e := Event{Name: em.name(), Cat: CatOperator, Ts: em.c - d2, Dur: d1, TID: 2}
				em.b.Operator(e.Name, e.TID, e.Ts, e.Dur)
				em.emit(e)
			}
		}
	}
	for len(em.open) > 0 {
		em.end()
	}
}

// checkProgram plays prog into a fresh builder and compares the trace
// with the reference stably sorted by start, reporting whether the
// builder merged.
func checkProgram(t *testing.T, prog []byte) (merged bool) {
	t.Helper()
	em := &emitter{b: NewBuilder()}
	if len(prog)%2 == 0 {
		em.b.Grow(len(prog))
	}
	em.run(prog)
	defer func(prev func(bool)) { OnFinish = prev }(OnFinish)
	OnFinish = func(m bool) { merged = m }
	got := em.b.Trace().Events
	want := slices.Clone(em.ref)
	slices.SortStableFunc(want, byTs)
	if !slices.Equal(got, want) {
		t.Fatalf("program %v: trace differs from the stable sort of its emission order\n got %v\nwant %v", prog, got, want)
	}
	return merged
}

// TestBuilderMatchesStableSort: on random emitter programs of up to
// 2000 acts, with zero-length dispatches, launch calls, lags and node
// launches, the finished trace equals the emission order (operators at
// their end) stably sorted by start time. Programs take both the merge
// and the fallback sort.
func TestBuilderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var merged, sorted int
	for _, n := range []int{0, 1, 2, 3, 8, 17, 64, 256, 2000} {
		for i := 0; i < 40; i++ {
			prog := make([]byte, n)
			rng.Read(prog)
			if checkProgram(t, prog) {
				merged++
			} else {
				sorted++
			}
		}
	}
	t.Logf("%d programs merged, %d sorted", merged, sorted)
	if merged == 0 || sorted == 0 {
		t.Errorf("%d programs merged and %d sorted, want both paths taken", merged, sorted)
	}
}

// FuzzBuilderMatchesStableSort is TestBuilderMatchesStableSort on
// generated programs.
func FuzzBuilderMatchesStableSort(f *testing.F) {
	f.Add([]byte{1, 0, 8, 3, 43, 5, 2, 6, 230, 2})
	f.Add([]byte{0, 0, 0, 3, 2, 2, 4, 5, 6})
	f.Add([]byte{2, 1, 7, 255, 15, 3, 2, 47})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 5000 {
			prog = prog[:5000]
		}
		checkProgram(t, prog)
	})
}

// TestBuilderFinalizesOnce: a second Trace returns the finished trace
// unchanged, and an operator left open is a programming error.
func TestBuilderFinalizesOnce(t *testing.T) {
	b := NewBuilder()
	op := b.Begin("op", 1, 0)
	b.Runtime("cudaDeviceSynchronize", 1, 1, 4)
	b.End(op, 5)
	first := slices.Clone(b.Trace().Events)
	if again := b.Trace().Events; !slices.Equal(again, first) {
		t.Errorf("second Trace = %v, want %v", again, first)
	}
	if first[0].Name != "op" || first[0].Dur != 5 {
		t.Errorf("ended operator = %+v, want op over [0, 5)", first[0])
	}
	defer func() {
		if recover() == nil {
			t.Error("Trace with an operator open did not panic")
		}
	}()
	open := NewBuilder()
	open.Begin("op", 1, 0)
	open.Trace()
}
