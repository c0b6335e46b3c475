package serve

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
)

// leapContact is one way the fleet layer reaches an instance; it
// returns what it observed.
type leapContact func(in *Instance, now sim.Time) string

var leapContacts = []struct {
	name string
	fn   leapContact
}{
	{"accept", func(in *Instance, now sim.Time) string {
		return fmt.Sprint(in.Accept(now, Request{ID: 99, PromptLen: 64, OutputLen: 20}))
	}},
	{"requeue", func(in *Instance, now sim.Time) string {
		return fmt.Sprint(in.AcceptRequeued(now, Handoff{Req: Request{ID: 98, PromptLen: 64, OutputLen: 20}}))
	}},
	{"kill", func(in *Instance, now sim.Time) string {
		return fmt.Sprint(in.Kill(now))
	}},
	{"slow", func(in *Instance, now sim.Time) string {
		return fmt.Sprint(in.SetSlowFactor(1.5))
	}},
	{"kv", func(in *Instance, now sim.Time) string {
		return fmt.Sprint(in.KVFrac(), in.KVPressure(), in.QueueDepth(), in.Running())
	}},
}

// leapProbe runs one instance on its own calendar: eight requests
// arrive at 0 and decode together, and contact, if set, fires at at
// from an event scheduled before the run, which is the order stream
// arrivals and setup-time faults take. It returns what the contact saw
// and the instance's stats as JSON, and the instants of every event.
func leapProbe(t *testing.T, leap bool, at sim.Time, contact leapContact) (string, []sim.Time) {
	t.Helper()
	defer SetLeap(leap)()
	cfg := Config{
		Platform: hw.GH200(), Model: models.Llama32_1B(), Seq: 128, Mode: engine.Eager,
		Policy: ContinuousBatch, MaxBatch: 16, LatencyBucket: 64,
	}
	cal := sim.NewCalendar()
	in, err := NewInstance("probe", cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	var saw string
	if contact != nil {
		cal.Schedule(at, func(now sim.Time) { saw = contact(in, now) })
	}
	cal.Stream(8, func(int) sim.Time { return 0 }, func(now sim.Time, i int) {
		if err := in.Accept(now, Request{ID: i, PromptLen: int64(100 + 10*i), OutputLen: int64(150 + 7*i)}); err != nil {
			t.Fatal(err)
		}
	})
	var times []sim.Time
	for cal.Step() {
		times = append(times, cal.Now())
	}
	st, err := json.Marshal(in.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return saw + "\n" + string(st), times
}

// TestLeapContactAtBoundary puts every kind of contact exactly on an
// iteration boundary a leap is carrying, and one nanosecond either side
// of it. The contact must see, and leave behind, exactly what it does
// on the step path, where it fires before that boundary's finish.
func TestLeapContactAtBoundary(t *testing.T) {
	_, times := leapProbe(t, false, 0, nil)
	if len(times) < 100 {
		t.Fatalf("only %d events", len(times))
	}
	before := LeaptBoundaries()
	for _, k := range []int{len(times) / 5, len(times) / 3, len(times) / 2} {
		for _, d := range []sim.Time{-1, 0, 1} {
			at := times[k] + d
			for _, c := range leapContacts {
				step, _ := leapProbe(t, false, at, c.fn)
				leap, _ := leapProbe(t, true, at, c.fn)
				if step != leap {
					t.Errorf("%s at boundary %d%+d: leap and step paths differ\nstep %s\nleap %s", c.name, k, d, step, leap)
				}
			}
		}
	}
	if LeaptBoundaries() == before {
		t.Fatal("no run leapt")
	}
}

// warmLeap returns one round of a leap's life on a warm instance:
// llama-3.2-1B decoding 16 requests on GH200 over a warm step oracle,
// with a leap in flight. A round restores every request's progress,
// steps the calendar to just after the leap's first boundary, cuts the
// leap there (applying that boundary), and fires the cut iteration's
// finish, whose kick plans the next leap.
func warmLeap(tb testing.TB) (round func()) {
	s, cal := decodeBatch(tb, true)
	for s.lp.ev == (sim.Handle{}) {
		if !cal.Step() {
			tb.Fatal("calendar drained before a leap started")
		}
	}
	gens := make([]int64, len(s.running))
	kvs := make([]float64, len(s.running))
	for i, r := range s.running {
		gens[i], kvs[i] = r.generated, r.kvBytes
	}
	kvUsed := s.kvUsed
	noop := func(sim.Time) {}
	round = func() {
		for i, r := range s.running {
			r.generated, r.kvBytes = gens[i], kvs[i]
		}
		s.kvUsed = kvUsed
		if s.lp.ev == (sim.Handle{}) || len(s.running) != s.cfg.MaxBatch {
			tb.Fatalf("no leap in flight over the full batch: %d running", len(s.running))
		}
		cal.Schedule(s.lp.base+s.lp.step+1, noop)
		cal.Step()
		s.cutLeap(cal.Now())
		cal.Step()
	}
	round() // warm the oracle entry every later round hits
	return round
}
