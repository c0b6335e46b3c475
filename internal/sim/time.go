// Package sim provides the virtual-time foundation for the platform
// simulator: nanosecond Time and a small event calendar.
//
// Inference on one platform needs no calendar: it is a single CPU
// thread feeding a FIFO GPU stream, so the engine's forward timestamping
// of a host clock and a stream frontier reproduces exactly the schedule
// a general discrete-event engine would produce, at a fraction of the
// cost.
//
// The Calendar orders pending events by (time, insertion sequence), so
// same-instant events fire in the order they were scheduled. A request
// stream's arrivals enter as one cursor (Calendar.Stream) rather than
// one event each; the cursor reserves its entries' sequence numbers
// when it is installed, so an arrival still wins a same-instant tie
// against every event scheduled after setup and loses to setup-time
// events scheduled before it (an autoscale tick, a fault).
//
// Calendar events are recycled: Schedule draws from a free list of
// fired and cancelled events, so a calendar in steady state schedules
// without allocating. Schedule returns a Handle (event, generation);
// every release bumps the event's generation, so a handle is valid only
// until its event fires or is cancelled, and Cancel on a stale handle
// returns false without touching whatever event now occupies the
// storage.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
// Durations are also expressed as Time (ns) for arithmetic convenience.
type Time int64

// Common duration units, mirroring time.Nanosecond and friends but in
// virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a plain int64 nanosecond count.
func (t Time) Nanoseconds() int64 { return int64(t) }

// Microseconds returns t in microseconds as a float.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Milliseconds returns t in milliseconds as a float.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String renders the time with an adaptive unit, e.g. "2.26µs" or "14.8ms".
func (t Time) String() string {
	switch {
	case t == -1<<63:
		return fmt.Sprintf("%dns", int64(t)) // -t would overflow back to t
	case t < 0:
		return fmt.Sprintf("-%s", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fµs", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// FromNs converts a float nanosecond quantity (as used by the hardware
// cost models) to a Time, rounding to the nearest nanosecond.
func FromNs(ns float64) Time {
	if ns <= 0 {
		return 0
	}
	return Time(float64(ns) + 0.5)
}

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
