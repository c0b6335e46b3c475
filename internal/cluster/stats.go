package cluster

import (
	"fmt"
	"math"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// InstanceStats pairs one instance's identity and routed count with its
// full serving statistics.
type InstanceStats struct {
	Name     string
	Platform string
	// Routed counts requests placed on this instance: fresh arrivals
	// and requests requeued here after a crash. Summed over instances
	// it is Stats.Routed (fresh arrivals only) plus Chaos.Requeued.
	Routed int
	Serve  serve.Stats
}

// Stats summarizes a monolithic fleet simulation.
type Stats struct {
	// RouterPolicy names the routing policy that produced these stats.
	RouterPolicy string

	// Offered counts requests presented to the front-end; each is then
	// exactly one of: Rejected (admission control), Unroutable (fits no
	// instance's KV budget), or Routed.
	Offered    int
	Rejected   int
	Unroutable int
	Routed     int

	// Completed / Abandoned / Preemptions sum over instances.
	Completed   int
	Abandoned   int
	Preemptions int

	// Pooled carries the latency percentiles over the pooled completed
	// requests, the fleet rates, and the spread of routed counts.
	Pooled

	Instances []InstanceStats

	// Chaos ledgers fleet churn — autoscale actions, injected faults,
	// and the disposition of every crash-evicted request. Nil (and
	// omitted from JSON) for a static fleet. When present, the headline
	// Goodput above is goodput under chaos.
	Chaos *ChaosStats `json:",omitempty"`

	// Routing carries per-decision records and counterfactual policy
	// replays. Nil (and omitted from JSON) unless Config.CounterfactualK
	// was set.
	Routing *RoutingStats `json:",omitempty"`

	// KVCache sums the per-instance prefix-cache ledgers (hit rate
	// recomputed over the pooled counts). Nil (and omitted from JSON)
	// for a cacheless fleet.
	KVCache *serve.KVCacheStats `json:",omitempty"`
}

// Pooled is the fleet-wide block both report types share. Latency
// percentiles are computed over the pooled per-request samples of all
// instances — not averaged per-instance percentiles — so they are the
// fleet's true distribution. A TTFT sample comes from wherever a
// request's first token was served, TPOT and E2E samples from wherever
// it finished.
type Pooled struct {
	serve.Latency

	// Horizon is the last completion across the fleet.
	Horizon sim.Time
	// Throughput / TokensPerSec are fleet totals over the horizon.
	Throughput   float64
	TokensPerSec float64
	// Goodput is completed-requests-per-second meeting the fleet TTFT
	// SLO; SLOAttainment is the fraction that met it (1 when unset).
	Goodput       float64
	SLOAttainment float64

	// LoadImbalance is the coefficient of variation (stddev/mean) of
	// per-instance placed work (routed + resumed): 0 for a perfectly
	// even split, growing as placement concentrates load.
	LoadImbalance float64
}

// ChaosStats is the churn ledger of a dynamic fleet. Counters balance
// exactly: Killed == Requeued + Dropped, and the fleet's fresh
// placements == Completed + Abandoned + Dropped.
type ChaosStats struct {
	// Joins / Drains count autoscale grow and shrink actions.
	Joins  int
	Drains int
	// Crashes / SlowNodes / DegradedLinks count injected faults that
	// actually fired (random crashes skipped to keep the last instance
	// alive do not count; link faults apply to disaggregated fleets
	// only).
	Crashes       int
	SlowNodes     int
	DegradedLinks int
	// Killed counts in-flight requests evicted by crashes; each is then
	// exactly one of Requeued (re-placed through the router) or Dropped
	// (no accepting instance could ever fit it).
	Killed   int
	Requeued int
	Dropped  int
	// Repins counts session-affinity pins moved off departed instances.
	Repins int
	// PeakActive / FinalActive bound the fleet-size trajectory;
	// FleetSize samples the active-member count at every membership
	// transition (start, join, drain, crash).
	PeakActive  int
	FinalActive int
	FleetSize   []serve.SamplePoint
}

// totals is what every fleet report pools from its members.
type totals struct {
	Pooled
	completed, abandoned, preemptions, handedOff, resumed int
	// serve holds each member's statistics, in member order.
	serve   []*serve.Stats
	kvCache *serve.KVCacheStats
}

// tally pools the members' statistics and reconciles the fleet's
// ledgers: a violation means the fleet lost or duplicated a request
// across routing, handoff, transfer, queueing, preemption, abandonment
// or a crash.
func (f *fleetSim) tally() (*totals, error) {
	t := &totals{serve: make([]*serve.Stats, len(f.members))}
	// runs holds each member's TTFT, TPOT and E2E samples, which its
	// Stats call has sorted.
	var runs [3][][]sim.Time
	for i := range runs {
		runs[i] = make([][]sim.Time, 0, len(f.members))
	}
	var tokensOut int64
	caches := make([]*serve.KVCacheStats, len(f.members))
	placed := make([]int, len(f.members))
	for i, m := range f.members {
		is := m.in.Stats()
		t.serve[i], caches[i] = is, is.KVCache
		t.completed += is.Completed
		t.abandoned += is.Abandoned
		t.preemptions += is.Preemptions
		t.handedOff += is.HandedOff
		t.resumed += is.Resumed
		if is.Horizon > t.Horizon {
			t.Horizon = is.Horizon
		}
		tokensOut += is.TokensOut
		tt, tp, e := m.in.Latencies()
		runs[0], runs[1], runs[2] = append(runs[0], tt), append(runs[1], tp), append(runs[2], e)
		// Everything an instance was given (routed arrivals and
		// requeues, resumed handoffs) must settle there: completed,
		// abandoned, handed off, or killed in a crash.
		placed[i] = m.in.Routed() + is.Resumed
		if is.Requests != placed[i] {
			return nil, fmt.Errorf("cluster: %s settled %d of %d placed requests (routed %d + resumed %d)",
				m.in.Name(), is.Requests, placed[i], m.in.Routed(), is.Resumed)
		}
		if err := is.KVCache.Reconcile(); err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", m.in.Name(), err)
		}
	}

	p := &t.Pooled
	ttfts := mergeSorted(runs[0])
	p.Latency = serve.SummarizeLatency(ttfts, mergeSorted(runs[1]), mergeSorted(runs[2]))
	if p.Horizon > 0 {
		sec := p.Horizon.Seconds()
		p.Throughput = float64(t.completed) / sec
		p.TokensPerSec = float64(tokensOut) / sec
	}
	p.SLOAttainment, p.Goodput = serve.SLOGoodput(ttfts, f.cfg.TTFTSLO, p.Horizon, p.Throughput)
	p.LoadImbalance = imbalanceCV(placed)
	t.kvCache = serve.MergeKVCacheStats(caches)
	if err := t.kvCache.Reconcile(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	// Every offered request is rejected at the door, unroutable, or
	// routed; every handoff resumes or is dropped; every crash eviction
	// is requeued or dropped; and every fresh placement settles exactly
	// once — completed, abandoned, dropped at transfer, or dropped at
	// requeue. Requests requeued N times settle N+1 times (once per
	// hosting instance), which the per-instance checks above balance.
	offered := len(f.reqs)
	if offered != f.rejected+f.unroutable+f.placed {
		return nil, fmt.Errorf("cluster: request accounting broken: offered %d != rejected %d + unroutable %d + routed %d",
			offered, f.rejected, f.unroutable, f.placed)
	}
	drops := f.dis.dropped()
	if t.handedOff != drops+t.resumed {
		return nil, fmt.Errorf("cluster: handoff accounting broken: %d handed off != %d dropped + %d resumed",
			t.handedOff, drops, t.resumed)
	}
	if c := f.chaos; c != nil {
		if c.Killed != c.Requeued+c.Dropped {
			return nil, fmt.Errorf("cluster: churn accounting broken: killed %d != requeued %d + dropped %d",
				c.Killed, c.Requeued, c.Dropped)
		}
		drops += c.Dropped
	}
	if f.placed != t.completed+t.abandoned+drops {
		return nil, fmt.Errorf("cluster: request accounting broken: routed %d != completed %d + abandoned %d + dropped %d",
			f.placed, t.completed, t.abandoned, drops)
	}
	return t, nil
}

// mergeSorted returns the ascending merge of ascending runs in one
// buffer sized to their total. The non-empty runs' remainders form a
// min-heap on their first elements; each step moves the smallest first
// element to the output, so a merge of n samples from k runs costs
// O(n log k). A sorted sequence is unique, so the result equals sorting
// the concatenation.
func mergeSorted(runs [][]sim.Time) []sim.Time {
	n := 0
	heap := make([][]sim.Time, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			n += len(r)
			heap = append(heap, r)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	out := make([]sim.Time, 0, n)
	for len(heap) > 0 {
		r := heap[0]
		out = append(out, r[0])
		if len(r) > 1 {
			heap[0] = r[1:]
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return out
}

// siftDown restores the min-heap order of h, by first element, below
// h[i].
func siftDown(h [][]sim.Time, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1][0] < h[c][0] {
			c++
		}
		if h[i][0] <= h[c][0] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// finishChaos closes the churn ledger: session repins summed once per
// distinct router, and the final active count. Nil for a static fleet.
func (f *fleetSim) finishChaos() *ChaosStats {
	if f.chaos != nil {
		f.chaos.Repins = f.prefill.rt.repins
		if f.decode != f.prefill {
			f.chaos.Repins += f.decode.rt.repins
		}
		f.chaos.FinalActive = f.active(RoleBoth)
	}
	return f.chaos
}

// imbalanceCV is the coefficient of variation (stddev/mean) of
// per-instance work counts: 0 for a perfectly even split, growing as
// placement concentrates load.
func imbalanceCV(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum float64
	for _, c := range counts {
		sum += float64(c)
	}
	mean := sum / float64(len(counts))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, c := range counts {
		d := float64(c) - mean
		ss += float64(d * d)
	}
	return math.Sqrt(ss/float64(len(counts))) / mean
}
