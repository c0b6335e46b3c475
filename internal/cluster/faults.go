package cluster

import (
	"fmt"
	"math/rand"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// Fault injection: scheduled or seeded-random failures applied to a
// running fleet. A crash kills its victim outright — every in-flight
// request is evicted and re-routed through the front-door policy
// (requeued on whichever instance the router picks, or dropped when
// none can ever fit it), exercising the same mutable-membership path an
// autoscale drain uses. Slow-node faults model the degraded-host case
// (a throttled GPU, a contended CPU side): the victim keeps serving,
// every iteration stretched by a multiplier. Link faults degrade one
// interconnect link's bandwidth and apply to disaggregated fleets only.
//
// Everything is deterministic: scheduled faults fire at fixed calendar
// instants, and the random-crash plan (instants and victim draws) is
// generated from the seed at setup, before the calendar runs.

// FaultKind classifies a fault injection.
type FaultKind int

const (
	// FaultCrash kills the target instance immediately; in-flight work
	// requeues through the router.
	FaultCrash FaultKind = iota
	// FaultSlowNode multiplies the target's iteration durations by
	// Factor from At onward.
	FaultSlowNode
	// FaultLinkDegrade divides one KV-transfer link's bandwidth by
	// Factor from At onward (disaggregated fleets only).
	FaultLinkDegrade
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultSlowNode:
		return "slow-node"
	case FaultLinkDegrade:
		return "link-degraded"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// ParseFaultKind maps a spec name to a fault kind.
func ParseFaultKind(name string) (FaultKind, error) {
	switch name {
	case "crash":
		return FaultCrash, nil
	case "slow-node", "slow":
		return FaultSlowNode, nil
	case "link-degraded", "link":
		return FaultLinkDegrade, nil
	}
	return 0, fmt.Errorf("cluster: unknown fault kind %q (have crash|slow-node|link-degraded)", name)
}

// Fault is one scheduled injection.
type Fault struct {
	// At is the injection instant.
	At sim.Time
	// Kind selects the failure mode.
	Kind FaultKind
	// Target is the victim's member index (for link faults, the
	// source-instance index). A target that does not exist at At — or
	// already stopped — makes the fault a no-op.
	Target int
	// Dst is the destination-instance index of a link fault.
	Dst int
	// Factor is the slow-node iteration multiplier or the link
	// bandwidth divisor (≥ 1).
	Factor float64
}

// FaultsConfig parameterizes fault injection.
type FaultsConfig struct {
	// Faults is the scheduled injection list.
	Faults []Fault
	// CrashRatePerSec adds seeded-random crashes: instants drawn as a
	// Poisson process over the arrival window, victims drawn uniformly
	// from the surviving members at fire time. A crash that would leave
	// a pool (prefill-capable or decode-capable) without an accepting
	// instance is skipped — chaos tests the fleet, it does not end the
	// service.
	CrashRatePerSec float64
	// Seed drives the random-crash plan (rate > 0 only).
	Seed int64
}

// validate checks the fault plan; links reports whether the hosting
// fleet has interconnect links to degrade.
func (fc *FaultsConfig) Validate(links bool) error {
	if fc.CrashRatePerSec < 0 {
		return fmt.Errorf("cluster: crash rate must be non-negative, got %g", fc.CrashRatePerSec)
	}
	for i, ft := range fc.Faults {
		switch {
		case ft.At < 0:
			return fmt.Errorf("cluster: fault %d: injection time must be non-negative", i)
		case ft.Target < 0:
			return fmt.Errorf("cluster: fault %d: target must be non-negative, got %d", i, ft.Target)
		}
		switch ft.Kind {
		case FaultCrash:
		case FaultSlowNode:
			if ft.Factor < 1 {
				return fmt.Errorf("cluster: fault %d: slow-node factor must be ≥ 1, got %g", i, ft.Factor)
			}
		case FaultLinkDegrade:
			if !links {
				return fmt.Errorf("cluster: fault %d: link faults apply to disaggregated fleets only", i)
			}
			if ft.Factor < 1 {
				return fmt.Errorf("cluster: fault %d: link degrade factor must be ≥ 1, got %g", i, ft.Factor)
			}
			if ft.Dst < 0 {
				return fmt.Errorf("cluster: fault %d: link destination must be non-negative, got %d", i, ft.Dst)
			}
		default:
			return fmt.Errorf("cluster: fault %d: unknown kind %v", i, ft.Kind)
		}
	}
	return nil
}

// setupFaults schedules the whole fault plan before the calendar runs.
func (f *fleetSim) setupFaults() {
	fc := f.cfg.Faults
	for _, ft := range fc.Faults {
		ft := ft
		f.cal.Schedule(ft.At, func(now sim.Time) { f.injectFault(now, ft) })
	}
	if fc.CrashRatePerSec > 0 {
		rng := rand.New(rand.NewSource(fc.Seed))
		var t float64 // seconds
		for {
			t += rng.ExpFloat64() / fc.CrashRatePerSec
			at := sim.Time(t * 1e9)
			if at > f.lastArrival {
				break
			}
			pick := rng.Uint64()
			f.cal.Schedule(at, func(now sim.Time) { f.randomCrash(now, pick) })
		}
	}
}

// injectFault applies one scheduled fault. Targets that do not exist
// yet (an index beyond the membership at fire time) or already stopped
// make the fault a deterministic no-op.
func (f *fleetSim) injectFault(now sim.Time, ft Fault) {
	if f.err != nil || ft.Target >= len(f.members) {
		return
	}
	if ft.Kind == FaultLinkDegrade {
		f.degradeLink(now, ft)
		return
	}
	in := f.members[ft.Target].in
	if in.State() == serve.StateStopped {
		return
	}
	switch ft.Kind {
	case FaultCrash:
		f.crash(now, ft.Target)
	case FaultSlowNode:
		if err := in.SetSlowFactor(ft.Factor); err != nil {
			f.fail(err)
			return
		}
		f.chaos.SlowNodes++
		f.emitFleet(serve.Event{
			Time: now, Type: serve.EventFaultInjected,
			Instance: in.Name(), Detail: fmt.Sprintf("slow-node ×%g", ft.Factor),
		})
	}
}

// randomCrash fires one seeded-random crash: the victim is drawn from
// the members still standing via the pre-drawn pick, and the crash is
// skipped when it would leave a pool without an accepting instance.
func (f *fleetSim) randomCrash(now sim.Time, pick uint64) {
	if f.err != nil {
		return
	}
	var cands []int
	for i, m := range f.members {
		if m.in.State() != serve.StateStopped {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return
	}
	v := cands[int(pick%uint64(len(cands)))]
	if !f.prefill.accepting(v) || !f.decode.accepting(v) {
		return
	}
	f.crash(now, v)
}

// crash kills one member and re-routes everything it was serving.
func (f *fleetSim) crash(now sim.Time, idx int) {
	in := f.members[idx].in
	f.chaos.Crashes++
	f.emitFleet(serve.Event{
		Time: now, Type: serve.EventFaultInjected,
		Instance: in.Name(), Detail: "crash",
	})
	evs := in.Kill(now) // emits instance-gone via the stamped observer
	f.chaos.Killed += len(evs)
	f.sampleFleet(now)
	for _, ev := range evs {
		f.requeue(now, ev)
	}
}

// requeue re-places one crash-evicted request through the pool matching
// its progress, or reports it dropped when no accepting instance there
// can ever fit it. A victim whose first token was never served goes
// back through the prefill-capable pool — and hands off again if it
// lands on a prefill-only instance — while a mid-stream victim re-runs
// on the decode-capable pool, recomputing its prompt locally exactly as
// a post-resume preemption would. The routed request carries its
// resolved lengths so the fit check is exact regardless of the
// target's config defaults.
func (f *fleetSim) requeue(now sim.Time, ev serve.Evicted) {
	if f.err != nil {
		return
	}
	req := ev.Req
	req.PromptLen, req.OutputLen = ev.PromptLen, ev.OutputLen
	p := f.prefill
	if ev.HasFirst {
		p = f.decode
	}
	idx := p.place(now, req, true)
	if idx < 0 {
		f.chaos.Dropped++
		f.emit(now, serve.EventUnroutable, req, "", "")
		return
	}
	m := f.members[idx]
	var err error
	if m.role == RolePrefill {
		err = m.in.AcceptRequeuedPrefill(now, ev, f.handoffFrom(idx))
	} else {
		err = m.in.AcceptRequeued(now, ev)
	}
	if err != nil {
		f.fail(fmt.Errorf("cluster: %s refused requeued request %d: %w", m.in.Name(), req.ID, err))
		return
	}
	f.chaos.Requeued++
	f.emit(now, serve.EventRequeued, req, m.in.Name(), "")
}
