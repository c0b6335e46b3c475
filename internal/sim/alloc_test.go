//go:build !race

package sim

import "testing"

// TestCalendarScheduleStepAllocs: on a warm calendar (its heap and free
// list already sized), Schedule, Cancel and the Step that fires an event
// allocate nothing. The race detector's instrumentation allocates, hence the
// build tag.
func TestCalendarScheduleStepAllocs(t *testing.T) {
	c := NewCalendar()
	fire := func(Time) {}
	for i := 0; i < 64; i++ {
		c.Schedule(Time(i), fire)
	}
	for c.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Cancel(c.Schedule(c.Now()+1, fire))
		c.Schedule(c.Now()+3, fire)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Cancel+Step allocates %.1f times per op on a warm calendar, want 0", allocs)
	}
}
