package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{2261, "2.26µs"},
		{1500 * Microsecond, "1.500ms"},
		{2500 * Millisecond, "2.5000s"},
		{-500, "-500ns"},
		{math.MinInt64, "-9223372036854775808ns"}, // negating it overflows
		{math.MinInt64 + 1, "-9223372036.8548s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 1500 * Microsecond
	if tt.Nanoseconds() != 1_500_000 {
		t.Errorf("Nanoseconds = %d", tt.Nanoseconds())
	}
	if tt.Microseconds() != 1500 {
		t.Errorf("Microseconds = %v", tt.Microseconds())
	}
	if tt.Milliseconds() != 1.5 {
		t.Errorf("Milliseconds = %v", tt.Milliseconds())
	}
	if tt.Seconds() != 0.0015 {
		t.Errorf("Seconds = %v", tt.Seconds())
	}
}

func TestFromNs(t *testing.T) {
	if got := FromNs(2260.5); got != 2261 {
		t.Errorf("FromNs(2260.5) = %d, want 2261", got)
	}
	if got := FromNs(2260.4); got != 2260 {
		t.Errorf("FromNs(2260.4) = %d, want 2260", got)
	}
	if got := FromNs(-5); got != 0 {
		t.Errorf("FromNs(-5) = %d, want 0", got)
	}
	if got := FromNs(0); got != 0 {
		t.Errorf("FromNs(0) = %d, want 0", got)
	}
}

func TestCalendarOrdering(t *testing.T) {
	c := NewCalendar()
	var order []int
	c.Schedule(30, func(Time) { order = append(order, 3) })
	c.Schedule(10, func(Time) { order = append(order, 1) })
	c.Schedule(20, func(Time) { order = append(order, 2) })
	// Same-time events fire in insertion order.
	c.Schedule(20, func(Time) { order = append(order, 4) })
	end := c.Run()
	if end != 30 {
		t.Errorf("Run end = %d, want 30", end)
	}
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCalendarScheduleInPastClamps(t *testing.T) {
	c := NewCalendar()
	c.Schedule(100, func(Time) {})
	c.Step()
	var fired Time
	c.Schedule(5, func(now Time) { fired = now })
	c.Step()
	if fired != 100 {
		t.Errorf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestCalendarCancel(t *testing.T) {
	c := NewCalendar()
	fired := false
	e := c.Schedule(10, func(Time) { fired = true })
	if !c.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if c.Cancel(e) {
		t.Error("second Cancel should return false")
	}
	c.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if c.Cancel(Handle{}) {
		t.Error("Cancel of the zero Handle should return false")
	}
}

// TestCalendarStaleHandle: a handle outlives its event. Once the event
// has fired and the calendar has reused its storage for a new Schedule,
// cancelling the old handle must return false and leave the new event
// to fire on time; an event cancelling itself from its own callback
// gets false too, and the event scheduled into its storage from that
// callback survives.
func TestCalendarStaleHandle(t *testing.T) {
	c := NewCalendar()
	var fired []string
	old := c.Schedule(10, func(Time) { fired = append(fired, "old@10") })
	if !c.Step() {
		t.Fatal("Step found no event")
	}
	next := c.Schedule(20, func(now Time) { fired = append(fired, fmt.Sprintf("new@%d", now)) })
	if next.e != old.e {
		t.Fatal("Schedule did not reuse the fired event's storage; the test exercises nothing")
	}
	if c.Cancel(old) {
		t.Error("Cancel of a fired event's handle returned true after its storage was reused")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after stale Cancel, want 1", c.Len())
	}
	c.Run()
	if got := fmt.Sprint(fired); got != "[old@10 new@20]" {
		t.Fatalf("fired %s, want [old@10 new@20]", got)
	}
	if c.Cancel(next) {
		t.Error("Cancel of a fired event's handle returned true")
	}

	// Cancelling from inside the event's own callback, after the
	// callback has scheduled a successor that reuses the storage.
	c = NewCalendar()
	fired = nil
	var self, succ Handle
	var selfCancel bool
	self = c.Schedule(5, func(now Time) {
		succ = c.Schedule(now+1, func(now Time) { fired = append(fired, fmt.Sprintf("succ@%d", now)) })
		selfCancel = c.Cancel(self)
	})
	c.Run()
	if succ.e != self.e {
		t.Fatal("the callback's Schedule did not reuse its own event's storage")
	}
	if selfCancel {
		t.Error("an event cancelling itself from its own callback got true")
	}
	if got := fmt.Sprint(fired); got != "[succ@6]" {
		t.Fatalf("fired %s, want [succ@6]", got)
	}

	// A cancelled event's storage is reused the same way.
	c = NewCalendar()
	fired = nil
	gone := c.Schedule(7, func(Time) { fired = append(fired, "gone") })
	if !c.Cancel(gone) {
		t.Fatal("Cancel of a pending event returned false")
	}
	kept := c.Schedule(8, func(Time) { fired = append(fired, "kept") })
	if kept.e != gone.e || c.Cancel(gone) {
		t.Fatal("a cancelled event's stale handle reached its storage's next occupant")
	}
	c.Run()
	if got := fmt.Sprint(fired); got != "[kept]" {
		t.Fatalf("fired %s, want [kept]", got)
	}
}

func TestCalendarCascade(t *testing.T) {
	// Events scheduling further events, as the decode scheduler does.
	c := NewCalendar()
	count := 0
	var step func(now Time)
	step = func(now Time) {
		count++
		if count < 5 {
			c.Schedule(now+10, step)
		}
	}
	c.Schedule(0, step)
	end := c.Run()
	if count != 5 || end != 40 {
		t.Errorf("count=%d end=%d, want 5 and 40", count, end)
	}
}

// Property: N random events all fire, in nondecreasing time order.
func TestCalendarProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCalendar()
		total := int(n%100) + 1
		var fired []Time
		for i := 0; i < total; i++ {
			c.Schedule(Time(rng.Int63n(500)), func(now Time) { fired = append(fired, now) })
		}
		c.Run()
		if len(fired) != total {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refCal is the naive reference calendar: a flat pending list scanned
// for the least (At, seq) on every step. A stream is its n entries
// scheduled one by one, which is what Calendar.Stream must be
// indistinguishable from.
type refCal struct {
	now     Time
	seq     uint64
	pending []*refEvent
}

type refEvent struct {
	at   Time
	seq  uint64
	fire func(now Time)
}

func (r *refCal) schedule(at Time, fire func(now Time)) *refEvent {
	if at < r.now {
		at = r.now
	}
	e := &refEvent{at: at, seq: r.seq, fire: fire}
	r.seq++
	r.pending = append(r.pending, e)
	return e
}

func (r *refCal) cancel(e *refEvent) bool {
	for i, p := range r.pending {
		if p == e {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

// next returns the index of the least pending event, or -1.
func (r *refCal) next() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 || e.at < r.pending[best].at ||
			(e.at == r.pending[best].at && e.seq < r.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refCal) step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	e := r.pending[i]
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	r.now = e.at
	e.fire(r.now)
	return true
}

// calOp is one randomly drawn calendar operation: a is its raw random
// parameter and deltas a stream's inter-entry gaps.
type calOp struct {
	kind   int
	a      int64
	deltas []Time
}

const (
	opSchedule = iota
	opCancel
	opStream
	opStep
	numOps
)

// firing is one fired entry: its id and the time it fired at.
type firing struct {
	id int
	at Time
}

// calDriver plays an op list against one calendar through three hooks,
// so the real Calendar and the reference run identical programs. Every
// fired entry records itself; some schedule a child at now (a same-time
// event from inside a callback) or a little later.
type calDriver struct {
	schedule func(at Time, fire func(now Time)) (cancel func() bool)
	stream   func(times []Time, fire func(now Time, i int))
	step     func() bool
	now      func() Time
	length   func() int

	fired      []firing
	nextID     int
	cancels    []func() bool
	streamLeft int
	log        []int64 // op results and the pending count after each op
}

func (d *calDriver) fire(id int) func(now Time) {
	return func(now Time) {
		d.fired = append(d.fired, firing{id, now})
		switch {
		case id%4 == 0:
			d.add(now)
		case id%6 == 1:
			d.add(now + Time(id%3))
		}
	}
}

func (d *calDriver) add(at Time) {
	id := d.nextID
	d.nextID++
	d.cancels = append(d.cancels, d.schedule(at, d.fire(id)))
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (d *calDriver) play(ops []calOp) {
	for _, op := range ops {
		switch op.kind {
		case opSchedule:
			d.add(d.now() + Time(op.a%15) - 3) // some land in the past and clamp
		case opCancel:
			if len(d.cancels) > 0 {
				ok := d.cancels[op.a%int64(len(d.cancels))]()
				d.log = append(d.log, boolInt(ok))
			}
		case opStream:
			if d.streamLeft > 0 {
				continue
			}
			times := make([]Time, len(op.deltas))
			at := d.now() + Time(op.a%6) - 2 // the first entries may clamp
			for i, dt := range op.deltas {
				at += dt
				times[i] = at
			}
			first := d.nextID
			d.nextID += len(times)
			d.streamLeft = len(times)
			d.stream(times, func(now Time, i int) {
				d.streamLeft--
				d.fire(first + i)(now)
			})
		case opStep:
			d.log = append(d.log, boolInt(d.step()))
		}
		d.log = append(d.log, int64(d.length()))
	}
	for d.step() {
	}
}

// TestCalendarMatchesReference: random interleavings of Schedule,
// Cancel, Stream and Step — with times drawn from a narrow range so
// equal-time ties are common, callbacks that schedule at now, and
// streams installed behind setup-time events at the same instants —
// must fire the same
// entries at the same times as the naive (At, seq)-sorted reference.
func TestCalendarMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]calOp, 30+rng.Intn(60))
		for i := range ops {
			op := calOp{kind: rng.Intn(numOps), a: rng.Int63()}
			if op.kind == opStream {
				op.deltas = make([]Time, rng.Intn(8))
				for j := range op.deltas {
					op.deltas[j] = Time(rng.Intn(3))
				}
			}
			ops[i] = op
		}

		c := NewCalendar()
		real := &calDriver{
			schedule: func(at Time, fire func(Time)) func() bool {
				e := c.Schedule(at, fire)
				return func() bool { return c.Cancel(e) }
			},
			stream: func(times []Time, fire func(Time, int)) {
				c.Stream(len(times), func(i int) Time { return times[i] }, fire)
			},
			step:   c.Step,
			now:    c.Now,
			length: c.Len,
		}
		r := &refCal{}
		ref := &calDriver{
			schedule: func(at Time, fire func(Time)) func() bool {
				e := r.schedule(at, fire)
				return func() bool { return r.cancel(e) }
			},
			stream: func(times []Time, fire func(Time, int)) {
				for i, at := range times {
					i := i
					r.schedule(at, func(now Time) { fire(now, i) })
				}
			},
			step:   r.step,
			now:    func() Time { return r.now },
			length: func() int { return len(r.pending) },
		}

		real.play(ops)
		ref.play(ops)
		if len(real.fired) != len(ref.fired) {
			t.Fatalf("seed %d: calendar fired %d entries, reference %d", seed, len(real.fired), len(ref.fired))
		}
		for i := range real.fired {
			if real.fired[i] != ref.fired[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference %+v", seed, i, real.fired[i], ref.fired[i])
			}
		}
		if len(real.log) != len(ref.log) {
			t.Fatalf("seed %d: op log lengths %d vs %d", seed, len(real.log), len(ref.log))
		}
		for i := range real.log {
			if real.log[i] != ref.log[i] {
				t.Fatalf("seed %d: op result %d is %d, reference %d", seed, i, real.log[i], ref.log[i])
			}
		}
		if c.Now() != r.now || c.Len() != 0 {
			t.Fatalf("seed %d: drained at %d with %d pending, reference at %d", seed, c.Now(), c.Len(), r.now)
		}
	}
}

// TestCalendarStreamTies pins the stream tie rule on a hand-built case:
// a setup-time event at the stream's first instant fires before it, an
// event its own callback schedules at now fires after every same-time
// entry, and a later entry stays pending.
func TestCalendarStreamTies(t *testing.T) {
	c := NewCalendar()
	var order []string
	c.Schedule(10, func(Time) { order = append(order, "setup@10") })
	times := []Time{10, 10, 30}
	c.Stream(len(times), func(i int) Time { return times[i] }, func(now Time, i int) {
		order = append(order, fmt.Sprintf("arrival%d@%d", i, now))
		if i == 0 {
			c.Schedule(now, func(Time) { order = append(order, "kick@10") })
		}
	})
	c.Schedule(10, func(Time) { order = append(order, "late@10") })
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5 (two events, three stream entries)", c.Len())
	}
	for i := 0; i < 5; i++ {
		if !c.Step() {
			t.Fatalf("Step %d found the calendar empty", i)
		}
	}
	want := "[setup@10 arrival0@10 arrival1@10 late@10 kick@10]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	if c.Len() != 1 || c.Now() != 10 {
		t.Fatalf("after five Steps: Len = %d, Now = %d; want 1 and 10", c.Len(), c.Now())
	}
	c.Run()
	if order[len(order)-1] != "arrival2@30" {
		t.Fatalf("last firing %s, want arrival2@30", order[len(order)-1])
	}
}

// BenchmarkCalendar times one Schedule plus one Step (pop and fire)
// against a steady backlog of 1024 pending events at spread-out
// instants. Fired events are recycled, so it allocates nothing.
func BenchmarkCalendar(b *testing.B) {
	const backlog = 1024
	c := NewCalendar()
	fire := func(Time) {}
	x := uint64(1)
	next := func() Time { // a fixed LCG: deterministic, spread-out offsets
		x = x*6364136223846793005 + 1442695040888963407
		return c.Now() + Time(x>>44)
	}
	for i := 0; i < backlog; i++ {
		c.Schedule(next(), fire)
	}
	// One warm round sizes the heap past the backlog and seeds the free
	// list, so the timed rounds measure the steady state.
	c.Schedule(next(), fire)
	c.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Schedule(next(), fire)
		c.Step()
	}
}
