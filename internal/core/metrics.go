package core

import (
	"fmt"
	"sort"

	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// KernelStat aggregates one kernel symbol across a trace, for the top-k
// kernel tracking of §III-A5.
type KernelStat struct {
	Name        string
	Count       int
	TotalTime   sim.Time
	TotalDelay  sim.Time // summed launch delay t_l across instances
	MeanTime    sim.Time
	MeanDelay   sim.Time
	TotalFLOPs  float64
	TotalBytes  float64
	ShareOfTime float64 // fraction of total kernel execution time
}

// Metrics are SKIP's per-run measurements (§III-A).
type Metrics struct {
	// TKLQT is the Total Kernel Launch and Queuing Time (Eq. 2): the sum
	// over kernels of t_l = tsb(k) − tsb(l).
	TKLQT sim.Time
	// AKD is the Average Kernel Duration (Eq. 3).
	AKD sim.Time
	// IL is the Inference Latency (Eq. 4): last kernel end − first
	// parent operator start.
	IL sim.Time
	// GPUBusy is the summed kernel execution time Σ t_k.
	GPUBusy sim.Time
	// GPUIdle is Eq. 5: IL − Σ t_k.
	GPUIdle sim.Time
	// CPUBusy is the union coverage of host operator and runtime spans.
	CPUBusy sim.Time
	// CPUIdle is IL − CPUBusy.
	CPUIdle sim.Time
	// MinDelay/MeanDelay/MaxDelay summarize per-kernel launch delays.
	// MinDelay approximates the pure (queue-free) launch overhead.
	MinDelay, MeanDelay, MaxDelay sim.Time
	// QueueShare is the fraction of TKLQT attributable to queuing rather
	// than the launch-overhead floor: 1 − n·MinDelay/TKLQT.
	QueueShare float64
	// KernelCount is the number of device kernels executed.
	KernelCount int
	// LaunchCount is the number of host-visible launch calls.
	LaunchCount int
	// ParentOps / TotalOps count the operator tree.
	ParentOps, TotalOps int
}

// Analyze builds the dependency graph and computes SKIP's metrics.
func Analyze(tr *trace.Trace) (*Metrics, *Graph, error) {
	g, err := BuildGraph(tr)
	if err != nil {
		return nil, nil, err
	}
	m, err := g.Metrics()
	if err != nil {
		return nil, nil, err
	}
	return m, g, nil
}

// Metrics computes the paper's metrics over the graph.
func (g *Graph) Metrics() (*Metrics, error) {
	m := &Metrics{
		ParentOps:   g.ParentCount(),
		TotalOps:    g.OpCount(),
		LaunchCount: len(g.Launches),
	}

	launches := g.KernelLaunches()
	m.KernelCount = len(launches)
	if m.KernelCount == 0 {
		return nil, fmt.Errorf("core: trace contains no kernel launches")
	}

	var lastKernelEnd sim.Time
	m.MinDelay = launches[0].LaunchDelay()
	for _, lr := range launches {
		d := lr.LaunchDelay()
		m.TKLQT += d
		if d < m.MinDelay {
			m.MinDelay = d
		}
		if d > m.MaxDelay {
			m.MaxDelay = d
		}
		m.GPUBusy += lr.Kernel.Dur
		if end := lr.Kernel.End(); end > lastKernelEnd {
			lastKernelEnd = end
		}
	}
	m.MeanDelay = m.TKLQT / sim.Time(m.KernelCount)
	m.AKD = m.GPUBusy / sim.Time(m.KernelCount)
	if m.TKLQT > 0 {
		floor := sim.Time(m.KernelCount) * m.MinDelay
		m.QueueShare = float64(m.TKLQT-floor) / float64(m.TKLQT)
	}

	// IL (Eq. 4): from the first parent ATen operator to the last kernel
	// end. Compiled traces may lack operator spans; fall back to the
	// first launch.
	var start sim.Time
	switch {
	case len(g.Parents) > 0:
		start = g.Parents[0].Event.Ts
	default:
		start = launches[0].Launch.Ts
	}
	m.IL = lastKernelEnd - start
	m.GPUIdle = m.IL - m.GPUBusy
	m.CPUBusy = hostBusy(g.Trace)
	m.CPUIdle = m.IL - m.CPUBusy
	if m.CPUIdle < 0 {
		m.CPUIdle = 0
	}
	return m, nil
}

// hostBusy returns the union coverage of host-side spans, so nested
// operator spans are not double-counted.
func hostBusy(tr *trace.Trace) sim.Time {
	var busy sim.Time
	for _, iv := range busyIntervals(tr, hostWork) {
		busy += iv.e - iv.s
	}
	return busy
}

// TopKernels aggregates kernel statistics by symbol and returns the top
// k by the chosen ordering (§III-A5). k ≤ 0 returns all.
type TopKOrder int

const (
	// ByCount orders by invocation count (most frequently launched).
	ByCount TopKOrder = iota
	// ByTotalTime orders by cumulative execution time.
	ByTotalTime
	// ByTotalDelay orders by cumulative launch delay (highest offload
	// tax).
	ByTotalDelay
)

// TopKernels computes per-symbol aggregates over the graph.
func (g *Graph) TopKernels(k int, order TopKOrder) []KernelStat {
	agg := make(map[string]*KernelStat)
	var totalTime sim.Time
	for _, lr := range g.KernelLaunches() {
		st, ok := agg[lr.Kernel.Name]
		if !ok {
			st = &KernelStat{Name: lr.Kernel.Name}
			agg[lr.Kernel.Name] = st
		}
		st.Count++
		st.TotalTime += lr.Kernel.Dur
		st.TotalDelay += lr.LaunchDelay()
		st.TotalFLOPs += lr.Kernel.FLOPs
		st.TotalBytes += lr.Kernel.Bytes
		totalTime += lr.Kernel.Dur
	}
	stats := make([]KernelStat, 0, len(agg))
	for _, st := range agg {
		st.MeanTime = st.TotalTime / sim.Time(st.Count)
		st.MeanDelay = st.TotalDelay / sim.Time(st.Count)
		if totalTime > 0 {
			st.ShareOfTime = float64(st.TotalTime) / float64(totalTime)
		}
		stats = append(stats, *st)
	}
	sort.Slice(stats, func(i, j int) bool {
		a, b := stats[i], stats[j]
		switch order {
		case ByTotalTime:
			if a.TotalTime != b.TotalTime {
				return a.TotalTime > b.TotalTime
			}
		case ByTotalDelay:
			if a.TotalDelay != b.TotalDelay {
				return a.TotalDelay > b.TotalDelay
			}
		default:
			if a.Count != b.Count {
				return a.Count > b.Count
			}
		}
		return a.Name < b.Name
	})
	if k > 0 && k < len(stats) {
		stats = stats[:k]
	}
	return stats
}
