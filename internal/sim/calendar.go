package sim

// event is a timestamped callback managed by a Calendar. Events with the
// same time fire in insertion order, which keeps simulations
// deterministic. A fired or cancelled event goes on its calendar's free
// list for reuse; gen counts those releases, so a Handle taken before a
// release no longer matches.
type event struct {
	at   Time
	fire func(now Time)

	seq   uint64
	index int // heap position
	gen   uint64
}

// Handle names one scheduled event, for Cancel. The zero Handle names no
// event. A handle is valid from Schedule until its event fires or is
// cancelled; after that it is stale, and Cancel on it returns false
// even once the calendar has reused the event's storage for a later
// Schedule. Only the calendar that issued a handle may cancel it.
type Handle struct {
	e   *event
	gen uint64
}

// before is the calendar's total order: time, then insertion sequence.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// stream is a calendar's arrival cursor: n entries that fire in index
// order, entry i at at(i) clamped to floor, carrying sequence number
// seq0+i.
type stream struct {
	n, next int
	seq0    uint64
	floor   Time
	head    Time // time of entry next
	at      func(i int) Time
	fire    func(now Time, i int)
}

func (s *stream) entryAt(i int) Time {
	return MaxTime(s.at(i), s.floor)
}

// Calendar is a deterministic future-event list. The core inference
// simulation needs none (see package comment), but the calendar
// supports components that need genuine event interleaving, such as
// the multi-request pipeline example and the decode-phase scheduler.
//
// Pending events live in a binary min-heap ordered by (time, seq), where
// seq is the insertion sequence. One arrival stream (see Stream) can
// sit beside the heap; Step fires whichever of the heap top and the
// stream head comes first in the same order, so a stream behaves
// exactly as if its entries had been scheduled one by one when it was
// installed.
//
// Events are recycled: a fired or cancelled event returns to a free
// list that later Schedule calls draw from, so a calendar in steady
// state schedules without allocating. Each release bumps the event's
// generation, which is what keeps a stale Handle from reaching the
// event's next occupant.
type Calendar struct {
	heap   []*event
	free   []*event
	now    Time
	seq    uint64
	stream stream
}

// NewCalendar returns an empty calendar positioned at time zero.
func NewCalendar() *Calendar { return &Calendar{} }

// Now reports the time of the most recently fired event (zero initially).
func (c *Calendar) Now() Time { return c.now }

// Len reports the number of pending events, unfired stream entries
// included.
func (c *Calendar) Len() int { return len(c.heap) + c.stream.n - c.stream.next }

// Schedule enqueues fire to run at time at. Scheduling in the past (before
// the calendar's current time) clamps to the current time, preserving the
// no-time-travel invariant. It returns a handle for Cancel that stays
// valid until the event fires or is cancelled.
func (c *Calendar) Schedule(at Time, fire func(now Time)) Handle {
	if at < c.now {
		at = c.now
	}
	var e *event
	if n := len(c.free) - 1; n >= 0 {
		e = c.free[n]
		c.free[n] = nil
		c.free = c.free[:n]
	} else {
		e = new(event)
	}
	e.at, e.fire, e.seq, e.index = at, fire, c.seq, len(c.heap)
	c.seq++
	c.heap = append(c.heap, e)
	c.up(e.index)
	return Handle{e: e, gen: e.gen}
}

// release retires a fired or cancelled event: the generation bump makes
// every outstanding handle to it stale, and dropping fire frees its
// captures.
func (c *Calendar) release(e *event) {
	e.gen++
	e.fire = nil
	c.free = append(c.free, e)
}

// Stream installs an arrival cursor of n entries: entry i fires
// fire(now, i) at time at(i), clamped to the current time like
// Schedule. at must be nondecreasing in i. Entries are pulled from the
// cursor as they fire, so the calendar holds O(1) state for them
// instead of n pending events.
//
// Tie rule: Stream reserves the sequence numbers [seq, seq+n) at
// install time, so entry i orders exactly like the i-th of n Schedule
// calls made at that moment. An entry beats every event scheduled after
// Stream returns at the same instant (including events its own fire
// schedules at now), and loses to same-instant events scheduled before
// Stream was called.
//
// A calendar holds one stream at a time; installing a second before the
// first drains is a bug and panics. Stream entries cannot be cancelled.
func (c *Calendar) Stream(n int, at func(i int) Time, fire func(now Time, i int)) {
	if c.stream.next < c.stream.n {
		panic("sim: Stream installed while another stream is pending")
	}
	c.stream = stream{n: n, seq0: c.seq, floor: c.now, at: at, fire: fire}
	c.seq += uint64(n)
	if n > 0 {
		c.stream.head = c.stream.entryAt(0)
	}
}

// streamFirst reports whether the stream head is the earliest pending
// entry.
func (c *Calendar) streamFirst() bool {
	s := &c.stream
	if s.next >= s.n {
		return false
	}
	if len(c.heap) == 0 {
		return true
	}
	top := c.heap[0]
	if s.head != top.at {
		return s.head < top.at
	}
	return s.seq0+uint64(s.next) < top.seq
}

// Cancel removes the pending event h names and returns true. A stale
// handle (its event already fired or was cancelled, whether or not the
// calendar has since reused the event for a later Schedule) and the
// zero Handle are no-ops that return false; so is cancelling an event
// from inside its own callback, since it has already fired.
func (c *Calendar) Cancel(h Handle) bool {
	e := h.e
	if e == nil || e.gen != h.gen {
		return false
	}
	i, n := e.index, len(c.heap)-1
	last := c.heap[n]
	c.heap[n] = nil
	c.heap = c.heap[:n]
	if i != n {
		c.heap[i] = last
		last.index = i
		if !c.down(i) {
			c.up(i)
		}
	}
	c.release(e)
	return true
}

// Step fires the earliest pending event (or stream entry) and returns
// true, or returns false if the calendar is empty. The event is
// released before its callback runs, so the callback may Schedule into
// its storage.
func (c *Calendar) Step() bool {
	if c.streamFirst() {
		s := &c.stream
		i, at, fire := s.next, s.head, s.fire
		s.next++
		if s.next < s.n {
			s.head = s.entryAt(s.next)
			if s.head < at {
				panic("sim: Stream entry times decrease")
			}
		} else {
			// Drained: drop the callbacks so their captures can be freed.
			s.at, s.fire = nil, nil
		}
		c.now = at
		fire(at, i)
		return true
	}
	if len(c.heap) == 0 {
		return false
	}
	e := c.heap[0]
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap[0].index = 0
	c.heap[n] = nil
	c.heap = c.heap[:n]
	if n > 0 {
		c.down(0)
	}
	at, fire := e.at, e.fire
	c.release(e)
	c.now = at
	fire(at)
	return true
}

// Run fires events until the calendar drains, returning the final time.
func (c *Calendar) Run() Time {
	for c.Step() {
	}
	return c.now
}

// up moves the event at heap index j toward the root until its parent
// precedes it.
func (c *Calendar) up(j int) {
	h := c.heap
	e := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !before(e, h[i]) {
			break
		}
		h[j] = h[i]
		h[j].index = j
		j = i
	}
	h[j] = e
	e.index = j
}

// down moves the event at heap index i toward the leaves until it
// precedes both children, reporting whether it moved.
func (c *Calendar) down(i int) bool {
	h := c.heap
	n := len(h)
	e := h[i]
	i0 := i
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && before(h[r], h[j]) {
			j = r
		}
		if !before(h[j], e) {
			break
		}
		h[i] = h[j]
		h[i].index = i
		i = j
	}
	h[i] = e
	e.index = i
	return i > i0
}
