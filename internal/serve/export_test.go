package serve

// SetLeap turns leaping over pure-decode iterations on or off for the
// simulators built from now on, and returns a function that restores
// the previous setting.
func SetLeap(on bool) (restore func()) {
	prev := leapOn
	leapOn = on
	return func() { leapOn = prev }
}

// LeaptBoundaries reports how many iteration boundaries leaps have
// applied in bulk in this process so far.
func LeaptBoundaries() int64 { return leaptBoundaries.Load() }
