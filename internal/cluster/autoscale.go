package cluster

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// The autoscale controller: a periodic feedback loop on the shared
// calendar that grows the fleet when a load signal runs hot and drains
// it when the signal runs cold. Growth is not instantaneous — a spun-up
// instance joins after a per-platform spin-up delay (model load, KV
// allocation; longer on loosely-coupled hosts whose weights cross PCIe)
// — and a cooldown separates consecutive actions so the controller
// cannot thrash on its own transient. Shrinks drain rather than kill:
// the victim finishes everything already placed on it, then leaves.

// ScaleSignal selects the load signal an autoscale controller tracks.
type ScaleSignal int

const (
	// SignalQueueDepth tracks mean outstanding requests (queued +
	// running) per active instance: grow above Target, shrink below
	// Target/2.
	SignalQueueDepth ScaleSignal = iota
	// SignalSLOAttainment tracks the rolling fraction of recent first
	// tokens meeting the TTFT SLO, pooled across instances: grow below
	// Target, shrink at or above the midpoint between Target and 1.
	SignalSLOAttainment
	// SignalTransferQueue tracks KV transfers on the wire or queued for
	// it per active decode-capable instance (disaggregated fleets
	// only): grow above Target, shrink below Target/2.
	SignalTransferQueue
)

func (s ScaleSignal) String() string {
	switch s {
	case SignalQueueDepth:
		return "queue-depth"
	case SignalSLOAttainment:
		return "slo-attainment"
	case SignalTransferQueue:
		return "transfer-queue"
	default:
		return fmt.Sprintf("signal(%d)", int(s))
	}
}

// ParseScaleSignal maps a spec name to a scale signal.
func ParseScaleSignal(name string) (ScaleSignal, error) {
	switch name {
	case "queue-depth":
		return SignalQueueDepth, nil
	case "slo-attainment":
		return SignalSLOAttainment, nil
	case "transfer-queue":
		return SignalTransferQueue, nil
	}
	return 0, fmt.Errorf("cluster: unknown scale signal %q (have queue-depth|slo-attainment|transfer-queue)", name)
}

// AutoscaleConfig parameterizes the feedback controller.
type AutoscaleConfig struct {
	// Template is the serving config cloned for every spun-up instance
	// (its TTFTSLO falls back to the fleet's, like base instances).
	Template serve.Config
	// Signal selects the tracked load signal.
	Signal ScaleSignal
	// Target is the signal's setpoint: outstanding requests per
	// instance (queue-depth), attainment fraction in (0,1]
	// (slo-attainment), or pending transfers per decode-capable
	// instance (transfer-queue).
	Target float64
	// Role names the members the controller counts, adds and drains.
	// The zero value, RoleBoth, scales the whole fleet with instances
	// that serve end to end; the other roles need Config.Disagg, and
	// the spec front door defaults a disaggregated fleet to
	// RoleDecode — decode capacity is what transfer pressure starves.
	Role Role
	// Min / Max bound the active count of the scaled members (the
	// whole fleet, or one role of a disaggregated fleet). Shrinks only
	// ever drain instances the controller itself added, so the
	// configured base fleet is a floor regardless of Min; Max caps
	// active plus pending joins.
	Min, Max int
	// Interval is the controller period (default 1s).
	Interval sim.Time
	// Cooldown is the minimum time between scale actions (default
	// 2×Interval).
	Cooldown sim.Time
	// SpinUpDelay is the lag between a grow decision and the instance
	// joining. Zero takes the per-platform default: 2s for coupled
	// hosts, 4s for loosely-coupled ones.
	SpinUpDelay sim.Time
	// SLOWindow is the rolling sample window per instance for the
	// slo-attainment signal (default 50).
	SLOWindow int
}

func (a *AutoscaleConfig) Validate() error {
	switch {
	case a.Template.Platform == nil || a.Template.Model == nil:
		return fmt.Errorf("cluster: autoscale template needs a platform and a model")
	case a.Target <= 0:
		return fmt.Errorf("cluster: autoscale target must be positive, got %g", a.Target)
	case a.Signal == SignalSLOAttainment && a.Target > 1:
		return fmt.Errorf("cluster: slo-attainment target must be in (0,1], got %g", a.Target)
	case a.Max <= 0:
		return fmt.Errorf("cluster: autoscale max must be positive, got %d", a.Max)
	case a.Min < 0 || a.Min > a.Max:
		return fmt.Errorf("cluster: autoscale min %d must be in [0, max %d]", a.Min, a.Max)
	case a.Interval < 0 || a.Cooldown < 0 || a.SpinUpDelay < 0:
		return fmt.Errorf("cluster: autoscale interval, cooldown, and spin-up delay must be non-negative")
	case a.SLOWindow < 0:
		return fmt.Errorf("cluster: autoscale SLO window must be non-negative, got %d", a.SLOWindow)
	}
	return nil
}

func (a *AutoscaleConfig) interval() sim.Time {
	if a.Interval > 0 {
		return a.Interval
	}
	return sim.Second
}

func (a *AutoscaleConfig) cooldown() sim.Time {
	if a.Cooldown > 0 {
		return a.Cooldown
	}
	return 2 * a.interval()
}

func (a *AutoscaleConfig) spinUp() sim.Time {
	if a.SpinUpDelay > 0 {
		return a.SpinUpDelay
	}
	if a.Template.Platform.Coupling == hw.LooselyCoupled {
		return 4 * sim.Second
	}
	return 2 * sim.Second
}

func (a *AutoscaleConfig) sloWindow() int {
	if a.SLOWindow > 0 {
		return a.SLOWindow
	}
	return 50
}

// setupAutoscale validates the template eagerly (a broken template must
// fail the run at setup, not mid-simulation at first spin-up) and arms
// the first controller tick.
func (f *fleetSim) setupAutoscale() error {
	a := f.cfg.Autoscale
	if a.Signal == SignalTransferQueue && f.dis == nil {
		return fmt.Errorf("cluster: the transfer-queue signal applies to disaggregated fleets only")
	}
	if _, err := serve.NewInstance("autoscale-template", a.Template, sim.NewCalendar()); err != nil {
		return fmt.Errorf("cluster: autoscale template: %w", err)
	}
	f.cal.Schedule(a.interval(), f.scaleTick)
	return nil
}

// scaleTick is one controller period: evaluate the signal (unless
// cooling down), act, and re-arm while the simulation still has work —
// pending KV transfers included, so the tick chain ends with the
// workload, the calendar drains, and no cache is left on the wire.
func (f *fleetSim) scaleTick(now sim.Time) {
	if f.err != nil {
		return
	}
	a := f.cfg.Autoscale
	if !f.scaled || now-f.lastScale >= a.cooldown() {
		f.scaleDecide(now)
	}
	if now < f.lastArrival || f.outstanding(RoleBoth) > 0 || f.pendingJoins > 0 || f.dis.inFlight() > 0 {
		f.cal.Schedule(now+a.interval(), f.scaleTick)
	}
}

// scaleDecide evaluates the signal against its setpoint with hysteresis
// (the grow and shrink thresholds are separated so the controller does
// not oscillate around Target) and triggers at most one action on the
// scaled members.
func (f *fleetSim) scaleDecide(now sim.Time) {
	a := f.cfg.Autoscale
	var grow, shrink bool
	switch a.Signal {
	case SignalSLOAttainment:
		met, total := 0, 0
		for _, m := range f.members {
			if m.in.State() != serve.StateStopped {
				mm, t := m.in.SLOWindow(a.sloWindow())
				met, total = met+mm, total+t
			}
		}
		if total == 0 {
			return // no samples yet: no signal
		}
		att := float64(met) / float64(total)
		grow = att < a.Target
		shrink = att >= (1+a.Target)/2
	case SignalTransferQueue:
		// Transfer pressure starves decode capacity: the signal is
		// caches on the wire (or queued for it) per active
		// decode-capable instance, whichever members the controller
		// scales.
		act := f.active(RoleDecode)
		if act == 0 {
			grow = true
			break
		}
		depth := float64(f.dis.inFlight()) / float64(act)
		grow = depth > a.Target
		shrink = depth < a.Target/2
	default: // SignalQueueDepth over the scaled members
		act := f.active(a.Role)
		if act == 0 {
			grow = true
			break
		}
		depth := float64(f.outstanding(a.Role)) / float64(act)
		grow = depth > a.Target
		shrink = depth < a.Target/2
	}
	switch {
	case grow:
		f.grow(now)
	case shrink:
		f.shrink(now)
	}
}

// grow schedules one instance join after the spin-up delay.
func (f *fleetSim) grow(now sim.Time) {
	a := f.cfg.Autoscale
	if f.active(a.Role)+f.pendingJoins >= a.Max {
		return
	}
	f.pendingJoins++
	f.lastScale, f.scaled = now, true
	f.cal.Schedule(now+a.spinUp(), f.join)
}

// join lands a spun-up instance in the running fleet.
func (f *fleetSim) join(now sim.Time) {
	f.pendingJoins--
	if f.err != nil {
		return
	}
	a := f.cfg.Autoscale
	in, err := f.addInstance(a.Template, a.Role, true)
	if err != nil {
		f.fail(fmt.Errorf("cluster: autoscale join: %w", err))
		return
	}
	f.chaos.Joins++
	f.emitFleet(serve.Event{Time: now, Type: serve.EventInstanceJoin, Instance: in.Name()})
	f.sampleFleet(now)
}

// shrink drains the highest-index accepting instance the controller
// added. The base fleet is never drained, and the last active scaled
// member never leaves.
func (f *fleetSim) shrink(now sim.Time) {
	a := f.cfg.Autoscale
	act := f.active(a.Role)
	if act <= 1 || act <= a.Min {
		return
	}
	for i := len(f.members) - 1; i >= 0; i-- {
		if m := f.members[i]; m.managed && m.in.Accepting() {
			f.lastScale, f.scaled = now, true
			f.chaos.Drains++
			m.in.Drain(now) // emits drain-start via the stamped observer
			f.sampleFleet(now)
			return
		}
	}
}
