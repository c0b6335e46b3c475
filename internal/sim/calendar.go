package sim

// Event is a timestamped callback managed by a Calendar. Events with the
// same time fire in insertion order, which keeps simulations deterministic.
type Event struct {
	At   Time
	Fire func(now Time)

	seq   uint64
	index int
}

// before is the calendar's total order: time, then insertion sequence.
func before(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
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
	head    Time // At of entry next
	at      func(i int) Time
	fire    func(now Time, i int)
}

func (s *stream) entryAt(i int) Time {
	return MaxTime(s.at(i), s.floor)
}

// Calendar is a deterministic future-event list. The core inference
// simulation uses timelines directly (see package comment), but the
// calendar supports components that need genuine event interleaving, such
// as the multi-request pipeline example and the decode-phase scheduler.
//
// Pending events live in a binary min-heap ordered by (At, seq), where
// seq is the insertion sequence. One arrival stream (see Stream) can
// sit beside the heap; Step fires whichever of the heap top and the
// stream head comes first in the same order, so a stream behaves
// exactly as if its entries had been scheduled one by one when it was
// installed.
type Calendar struct {
	heap   []*Event
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
// no-time-travel invariant. It returns the scheduled event.
func (c *Calendar) Schedule(at Time, fire func(now Time)) *Event {
	if at < c.now {
		at = c.now
	}
	e := &Event{At: at, Fire: fire, seq: c.seq, index: len(c.heap)}
	c.seq++
	c.heap = append(c.heap, e)
	c.up(e.index)
	return e
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
	if s.head != top.At {
		return s.head < top.At
	}
	return s.seq0+uint64(s.next) < top.seq
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (c *Calendar) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.index >= len(c.heap) || c.heap[e.index] != e {
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
	e.index = -1
	return true
}

// Step fires the earliest pending event (or stream entry) and returns
// true, or returns false if the calendar is empty.
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
	e.index = -1
	c.now = e.At
	e.Fire(c.now)
	return true
}

// Run fires events until the calendar drains, returning the final time.
func (c *Calendar) Run() Time {
	for c.Step() {
	}
	return c.now
}

// RunUntil fires events (and stream entries) with At <= deadline,
// returning the final time. Pending later events remain queued.
func (c *Calendar) RunUntil(deadline Time) Time {
	for {
		if c.streamFirst() {
			if c.stream.head > deadline {
				break
			}
		} else if len(c.heap) == 0 || c.heap[0].At > deadline {
			break
		}
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
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
