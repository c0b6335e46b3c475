package metrics

// Profile is the simulator's self-measurement for one Simulate call:
// how fast the discrete-event engine chewed through the run, and what
// it allocated doing so. Events are observer emissions (the engine's
// externally visible work units); allocation counters are
// runtime.MemStats deltas across the run, so they include workload
// generation and stats assembly. Wall time makes the report
// machine-dependent by construction — profiling is opt-in precisely so
// default reports stay deterministic.
type Profile struct {
	// WallNs is the elapsed wall-clock time of the simulation dispatch.
	WallNs int64 `json:"wall_ns"`
	// SimulatedNs is the virtual time covered (the run's horizon; for a
	// sweep, the sum of point horizons).
	SimulatedNs int64 `json:"simulated_ns"`
	// Events counts observer events emitted during the run.
	Events int64 `json:"events"`
	// EventsPerSec is Events over wall time.
	EventsPerSec float64 `json:"events_per_sec"`
	// Iterations counts the scheduler iterations (batches) the run's
	// instances executed, summed over instances and sweep points: the
	// work an event count does not show.
	Iterations int64 `json:"iterations"`
	// IterationsPerSec is Iterations over wall time.
	IterationsPerSec float64 `json:"iterations_per_sec"`
	// Mallocs / AllocBytes are the heap-allocation count and byte
	// deltas across the run.
	Mallocs    int64 `json:"mallocs"`
	AllocBytes int64 `json:"alloc_bytes"`
	// HeapAllocBytes is the live-heap size after the run — the peak
	// retained footprint a capacity planner sizes against.
	HeapAllocBytes int64 `json:"heap_alloc_bytes"`
	// AllocsPerEvent is Mallocs over Events — the per-event allocation
	// churn ROADMAP's perf trajectory tracks.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// OracleMisses counts engine runs the step oracle performed during
	// the call. The counter is process-wide: misses of Simulate calls
	// running concurrently in the same process are included.
	OracleMisses int64 `json:"oracle_misses"`
}
