package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// Attribution decomposes the inference latency into mutually exclusive
// phases by sweeping the host and device busy intervals together. It
// answers the question behind the paper's idle-time plots (Figs. 10b/c,
// 11b/c) at a finer grain: of every nanosecond of IL, who was working?
type Attribution struct {
	// IL is the attributed window (first parent op → last kernel end).
	IL sim.Time
	// CPUOnly: host working, device idle — the launch-dominated share.
	CPUOnly sim.Time
	// GPUOnly: device working, host idle or blocked — the saturated
	// share.
	GPUOnly sim.Time
	// Overlap: both processing units busy — the balanced share.
	Overlap sim.Time
	// Bubble: neither busy — pipeline stalls (launch propagation, sync
	// edges).
	Bubble sim.Time
}

// Fractions returns the four shares normalized by IL.
func (a *Attribution) Fractions() (cpuOnly, gpuOnly, overlap, bubble float64) {
	if a.IL <= 0 {
		return 0, 0, 0, 0
	}
	il := float64(a.IL)
	return float64(a.CPUOnly) / il, float64(a.GPUOnly) / il,
		float64(a.Overlap) / il, float64(a.Bubble) / il
}

// String renders the decomposition compactly.
func (a *Attribution) String() string {
	c, g, o, b := a.Fractions()
	return fmt.Sprintf("IL %v: cpu-only %.0f%%, gpu-only %.0f%%, overlap %.0f%%, bubble %.0f%%",
		a.IL, c*100, g*100, o*100, b*100)
}

// Attribute computes the latency decomposition of a trace.
func Attribute(tr *trace.Trace) (*Attribution, error) {
	g, err := BuildGraph(tr)
	if err != nil {
		return nil, err
	}
	m, err := g.Metrics()
	if err != nil {
		return nil, err
	}

	var start sim.Time
	if len(g.Parents) > 0 {
		start = g.Parents[0].Event.Ts
	} else if launches := g.KernelLaunches(); len(launches) > 0 {
		start = launches[0].Launch.Ts
	}
	end := start + m.IL

	cpu := busyIntervals(tr, hostWork)
	gpu := busyIntervals(tr, func(e *trace.Event) bool {
		return e.Cat == trace.CatKernel || e.Cat == trace.CatMemcpy
	})

	a := &Attribution{IL: m.IL}
	// Sweep the window over the union of boundaries.
	bounds := []sim.Time{start, end}
	for _, iv := range cpu {
		bounds = append(bounds, iv.s, iv.e)
	}
	for _, iv := range gpu {
		bounds = append(bounds, iv.s, iv.e)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo || hi <= start || lo >= end {
			continue
		}
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		d := hi - lo
		mid := lo + d/2
		cBusy := covered(cpu, mid)
		gBusy := covered(gpu, mid)
		switch {
		case cBusy && gBusy:
			a.Overlap += d
		case cBusy:
			a.CPUOnly += d
		case gBusy:
			a.GPUOnly += d
		default:
			a.Bubble += d
		}
	}
	return a, nil
}

type interval struct{ s, e sim.Time }

// hostWork selects the host-side spans that count as work: operators
// and runtime calls. Synchronize spans are excluded: the host is
// blocked, not working.
func hostWork(e *trace.Event) bool {
	return (e.Cat == trace.CatOperator || e.Cat == trace.CatRuntime) &&
		e.Name != "cudaDeviceSynchronize"
}

// busyIntervals returns the merged union of spans selected by keep.
// Spans arriving in start order, as in a sorted trace, merge as they
// come; only a trace with out-of-order spans pays for a sort.
func busyIntervals(tr *trace.Trace, keep func(*trace.Event) bool) []interval {
	var ivs []interval
	inOrder := true
	for i := range tr.Events {
		e := &tr.Events[i]
		if !keep(e) || e.Dur <= 0 {
			continue
		}
		if n := len(ivs); n > 0 && inOrder {
			last := &ivs[n-1]
			if e.Ts < last.s {
				inOrder = false
			} else if e.Ts <= last.e {
				last.e = max(last.e, e.End())
				continue
			}
		}
		ivs = append(ivs, interval{e.Ts, e.End()})
	}
	if inOrder {
		return ivs
	}
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.s, b.s) })
	merged := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &merged[len(merged)-1]
		if iv.s <= last.e {
			if iv.e > last.e {
				last.e = iv.e
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// covered reports whether t falls inside any interval (binary search).
func covered(ivs []interval, t sim.Time) bool {
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case t < ivs[mid].s:
			hi = mid
		case t >= ivs[mid].e:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}
