// Package cluster simulates an inference fleet under one shared clock:
// continuous-batching instances (serve.Instance, each a full
// iteration-level scheduler with its own KV-capacity model) behind a
// front door that applies token-bucket admission control and pluggable
// routing. Because every instance runs on the same sim.Calendar, events
// interleave in global timestamp order and a fixed request stream
// reproduces byte-identical statistics.
//
// Every fleet is a set of role pools on one loop, configured by one
// Config and run by one Simulate. A pool is the slice of instances one
// router places over. A monolithic fleet is a single pool of RoleBoth
// members: every request runs end to end where the router puts it.
// Config.Disagg adds a decode pool: fresh arrivals land on the
// prefill-capable pool, prefill-only members hand their KV cache to a
// decode-capable member over an interconnect-priced transfer link
// (TransferModel), and the request resumes there. Autoscaling, fault
// injection, crash requeue, decision records and the ledgers are
// written once and run per pool.
//
// This answers the fleet-scale questions a single instance cannot. The
// paper shows coupled (GH200) and loosely-coupled (Intel+H100)
// platforms win in different regimes — BS=1 TTFT versus large-batch
// decode — so how should a router split live traffic across a mixed
// fleet, and when does moving prefill and decode onto different
// hardware pay for the KV handoff? A GH200's NVLink-C2C hands a cache
// off at 450 GB/s through unified memory, while a discrete PCIe node
// store-and-forwards it through host DRAM.
package cluster

import (
	"fmt"
	"sort"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// Config parameterizes a fleet simulation, monolithic or (with Disagg)
// disaggregated.
type Config struct {
	// Instances lists the fleet's members in order; fault targets index
	// this list. Every member's serving config must use a continuous
	// policy (ContinuousBatch or ChunkedPrefill); platforms may differ
	// freely — that heterogeneity is the point.
	Instances []Member
	// Policy selects the routing policy (default RoundRobin): the one
	// pool's in a monolithic fleet, the prefill pool's in a
	// disaggregated one. The spec front door defaults both to
	// least-queue.
	Policy Policy
	// ShortPrompt is the platform-aware policy's regime boundary in
	// prompt tokens: requests at or below it prefer coupled instances
	// (default 512).
	ShortPrompt int64
	// TTFTSLO is the fleet-level time-to-first-token objective for
	// aggregate goodput accounting; it is also copied into instance
	// configs that set none of their own (0 disables).
	TTFTSLO sim.Time
	// AdmitRatePerSec enables token-bucket admission control: requests
	// beyond this sustained rate are rejected at the front door instead
	// of queueing (0 disables).
	AdmitRatePerSec float64
	// AdmitBurst is the bucket depth in requests (default: one second's
	// refill, minimum 1).
	AdmitBurst float64
	// Observer, when set, receives front-door events (routed, rejected,
	// unroutable), KV-transfer events (kv-transfer-start/done with the
	// source→destination link) plus every instance's lifecycle events
	// with the instance name stamped in. Per-instance observers set on
	// the member configs still fire independently.
	Observer serve.Observer
	// Autoscale, when set, grows and shrinks the fleet (or, in a
	// disaggregated fleet, one role's members) against a load signal
	// while the simulation runs (see AutoscaleConfig). Nil keeps the
	// fleet static and the report's Chaos section absent.
	Autoscale *AutoscaleConfig
	// Faults, when set, injects instance crashes, slow-node multipliers
	// and (disaggregated fleets only) degraded links on schedule or at
	// seeded-random instants (see FaultsConfig). Nil injects nothing.
	Faults *FaultsConfig
	// CounterfactualK, when positive, records every routing decision
	// with up to K scored alternatives and counterfactual policy
	// replays: Stats.Routing, or DisaggStats.PrefillRouting and
	// DecodeRouting, whose decode records carry the chosen link's FIFO
	// backlog at pick time. Zero keeps recording off and the sections
	// absent.
	CounterfactualK int
	// Disagg, when set, splits the fleet into prefill and decode pools
	// by member Role and selects the DisaggStats report (see
	// Disaggregation). Nil runs a monolithic fleet of RoleBoth members
	// and reports Stats.
	Disagg *Disaggregation
}

// Member is one configured fleet instance: its serving config and the
// pool it joins. The zero Role, RoleBoth, serves requests end to end;
// the other roles need Config.Disagg.
type Member struct {
	Serve serve.Config
	Role  Role
}

func (c *Config) validate() error {
	if len(c.Instances) == 0 {
		return fmt.Errorf("cluster: config needs at least one instance")
	}
	for i, m := range c.Instances {
		switch {
		case m.Serve.Platform == nil:
			return fmt.Errorf("cluster: instance %d needs a platform", i)
		case m.Serve.Model == nil:
			return fmt.Errorf("cluster: instance %d needs a model", i)
		case m.Role != RoleBoth && c.Disagg == nil:
			return fmt.Errorf("cluster: instance %d has role %s, which needs a Disagg section", i, m.Role)
		}
	}
	if c.AdmitRatePerSec < 0 {
		return fmt.Errorf("cluster: admission rate must be non-negative, got %g", c.AdmitRatePerSec)
	}
	if a := c.Autoscale; a != nil {
		if err := a.Validate(); err != nil {
			return err
		}
		if a.Role != RoleBoth && c.Disagg == nil {
			return fmt.Errorf("cluster: autoscale role %s needs a Disagg section", a.Role)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Disagg != nil); err != nil {
			return err
		}
	}
	if c.Disagg != nil {
		return c.Disagg.validate(c)
	}
	return nil
}

// member is one running instance with its role; managed marks instances
// the autoscaler spun up — the only ones a shrink may drain, so the
// configured base fleet is never scaled away.
type member struct {
	in      *serve.Instance
	role    Role
	managed bool
}

// pool is one routing domain: the instances a router places over, in
// join order, with their member indices.
type pool struct {
	ins []*serve.Instance
	idx []int // pool position → member index
	rt  *Router
	// rec records the pool's routing decisions for counterfactual
	// scoring; nil when CounterfactualK is zero.
	rec *DecisionRecorder
}

// place picks an instance for req and records the decision, returning
// the member index or -1 when no pool instance can ever fit it.
func (p *pool) place(now sim.Time, req serve.Request, requeue bool) int {
	i := p.rt.Pick(req, p.ins)
	if i < 0 {
		return -1
	}
	if p.rec != nil {
		p.rec.Record(now, req, p.ins, i, requeue, 0)
	}
	return p.idx[i]
}

// accepting reports whether a pool member other than victim still
// accepts fresh work.
func (p *pool) accepting(victim int) bool {
	for i, in := range p.ins {
		if p.idx[i] != victim && in.Accepting() {
			return true
		}
	}
	return false
}

// fleetSim is one in-flight fleet simulation: the shared calendar, the
// mutable membership view with its pools, the admission state and the
// churn ledger. Membership is index-stable — members and pools only
// grow (autoscale joins append) and departed instances stay in place as
// Stopped, filtered by the routers' Accepting checks — so session pins,
// the round-robin cursor, and per-instance statistics never reindex
// under churn.
type fleetSim struct {
	cfg Config
	cal *sim.Calendar

	members []member
	// prefill places fresh arrivals and requeues that never produced a
	// first token; decode places handoffs and mid-stream requeues. A
	// monolithic fleet's two are the same pool.
	prefill, decode *pool
	admit           *TokenBucket

	reqs        []serve.Request
	lastArrival sim.Time

	rejected, unroutable int
	// placed counts fresh front-door placements only. Requeues after a
	// crash increment each instance's own routed count (keeping the
	// per-instance settled==placed invariant) but not this one, so the
	// front-door conservation law survives churn.
	placed int
	err    error

	// chaos is nil for a static fleet (no autoscale, no faults): the
	// ledger then never allocates and the report omits it.
	chaos        *ChaosStats
	pendingJoins int
	lastScale    sim.Time
	scaled       bool

	// dis is the KV-handoff state of a disaggregated fleet; nil for a
	// monolithic one.
	dis *handoffs
}

// newFleet sorts the request stream by arrival and sets up the shared
// calendar, admission control, the pools and, for a disaggregated
// fleet, the KV-handoff state; the caller adds members.
func newFleet(cfg Config, requests []serve.Request) (*fleetSim, error) {
	if len(requests) == 0 {
		return nil, fmt.Errorf("cluster: no requests")
	}
	reqs := make([]serve.Request, len(requests))
	copy(reqs, requests)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	f := &fleetSim{
		cfg:         cfg,
		cal:         sim.NewCalendar(),
		reqs:        reqs,
		lastArrival: reqs[len(reqs)-1].Arrival,
	}
	if cfg.AdmitRatePerSec > 0 {
		f.admit = NewTokenBucket(cfg.AdmitRatePerSec, cfg.AdmitBurst)
	}
	f.prefill = f.newPool(cfg.Policy)
	f.decode = f.prefill
	if d := cfg.Disagg; d != nil {
		f.dis = &handoffs{
			model:       d.Transfer,
			linkAware:   d.LinkAwareDecode,
			bytesPerTok: serve.KVBytesPerToken(cfg.Instances[0].Serve.Model),
			links:       make(map[[2]int]sim.Time),
			slow:        make(map[[2]int]float64),
		}
		f.decode = f.newPool(d.DecodePolicy)
	}
	return f, nil
}

// newPool builds an empty pool routed by policy.
func (f *fleetSim) newPool(policy Policy) *pool {
	p := &pool{rt: NewRouter(policy, f.cfg.ShortPrompt)}
	if f.cfg.CounterfactualK > 0 {
		p.rec = NewDecisionRecorder(policy, f.cfg.ShortPrompt, f.cfg.CounterfactualK)
	}
	return p
}

func (f *fleetSim) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// emitFleet reports a fleet-level event (join, fault) to the config
// observer.
func (f *fleetSim) emitFleet(e serve.Event) {
	if f.cfg.Observer != nil {
		f.cfg.Observer(e)
	}
}

// emit reports a front-door or transfer event for one request.
func (f *fleetSim) emit(now sim.Time, t serve.EventType, req serve.Request, instance, link string) {
	if f.cfg.Observer == nil {
		return
	}
	f.cfg.Observer(serve.Event{
		Time: now, Type: t,
		RequestID: req.ID, SessionID: req.SessionID,
		Instance: instance, Link: link,
	})
}

// addInstance constructs an instance on the shared calendar and slots
// it into the membership view and the pools its role serves. Instance
// names carry the role only in a disaggregated fleet.
func (f *fleetSim) addInstance(icfg serve.Config, role Role, managed bool) (*serve.Instance, error) {
	if icfg.TTFTSLO == 0 {
		icfg.TTFTSLO = f.cfg.TTFTSLO
	}
	idx := len(f.members)
	name := icfg.Platform.Name
	if f.dis != nil {
		name += "/" + role.String()
	}
	name = fmt.Sprintf("%s#%d", name, idx)
	if obs := f.cfg.Observer; obs != nil {
		own := icfg.Observer
		icfg.Observer = func(e serve.Event) {
			if own != nil {
				own(e)
			}
			e.Instance = name
			obs(e)
		}
	}
	in, err := serve.NewInstance(name, icfg, f.cal)
	if err != nil {
		return nil, err
	}
	f.members = append(f.members, member{in: in, role: role, managed: managed})
	if role != RoleDecode {
		f.prefill.ins = append(f.prefill.ins, in)
		f.prefill.idx = append(f.prefill.idx, idx)
	}
	if role != RolePrefill && f.decode != f.prefill {
		f.decode.ins = append(f.decode.ins, in)
		f.decode.idx = append(f.decode.idx, idx)
	}
	return in, nil
}

// active counts the accepting members role covers (see inRole).
func (f *fleetSim) active(role Role) int {
	n := 0
	for _, m := range f.members {
		if inRole(m.role, role) && m.in.Accepting() {
			n++
		}
	}
	return n
}

// outstanding sums queued plus running requests over the non-stopped
// members role covers, draining ones included.
func (f *fleetSim) outstanding(role Role) int {
	n := 0
	for _, m := range f.members {
		if inRole(m.role, role) && m.in.State() != serve.StateStopped {
			n += m.in.Outstanding()
		}
	}
	return n
}

// sampleFleet records the active-member count in the churn ledger's
// fleet-size series (called at every membership transition).
func (f *fleetSim) sampleFleet(now sim.Time) {
	act := f.active(RoleBoth)
	if act > f.chaos.PeakActive {
		f.chaos.PeakActive = act
	}
	f.chaos.FleetSize = append(f.chaos.FleetSize, serve.SamplePoint{T: now, V: float64(act)})
}

// route places one front-door arrival on the prefill-capable pool.
func (f *fleetSim) route(now sim.Time, req serve.Request) {
	if f.err != nil {
		return
	}
	if f.admit != nil && !f.admit.Allow(now) {
		f.rejected++
		f.emit(now, serve.EventRejected, req, "", "")
		return
	}
	idx := f.prefill.place(now, req, false)
	if idx < 0 {
		f.unroutable++
		f.emit(now, serve.EventUnroutable, req, "", "")
		return
	}
	m := f.members[idx]
	f.placed++
	f.emit(now, serve.EventRouted, req, m.in.Name(), "")
	var err error
	if m.role == RolePrefill {
		err = m.in.AcceptPrefill(now, req, f.handoffFrom(idx))
	} else {
		err = m.in.Accept(now, req)
	}
	if err != nil {
		// place only offers accepting, fitting instances, so Accept
		// cannot refuse; treat a refusal as the bug it would be.
		f.fail(fmt.Errorf("cluster: %s refused routed request %d: %w", m.in.Name(), req.ID, err))
	}
}

// run executes the simulation: autoscale tick, then the fault plan,
// then the arrivals, all on the shared calendar.
func (f *fleetSim) run() error {
	if f.cfg.Autoscale != nil || f.cfg.Faults != nil {
		f.chaos = &ChaosStats{}
		f.sampleFleet(0)
	}
	if f.cfg.Autoscale != nil {
		if err := f.setupAutoscale(); err != nil {
			return err
		}
	}
	if f.cfg.Faults != nil {
		f.setupFaults()
	}
	f.cal.Stream(len(f.reqs),
		func(i int) sim.Time { return f.reqs[i].Arrival },
		func(now sim.Time, i int) { f.route(now, f.reqs[i]) })
	f.cal.Run()
	if f.err != nil {
		return f.err
	}
	for _, m := range f.members {
		if err := m.in.Err(); err != nil {
			return fmt.Errorf("cluster: instance %s: %w", m.in.Name(), err)
		}
	}
	return nil
}

// Simulate runs the fleet over the request stream. Requests are routed
// at their arrival instant against the instances' live scheduler state,
// and the ledgers reconcile exactly: every prefill completion is
// matched by exactly one decode completion or a reported drop. The
// whole simulation — autoscaling and fault injection included — is
// deterministic for a fixed stream and config. Exactly one report is
// non-nil: Stats for a monolithic fleet, DisaggStats when cfg.Disagg is
// set.
func Simulate(cfg Config, requests []serve.Request) (*Stats, *DisaggStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	f, err := newFleet(cfg, requests)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range cfg.Instances {
		if _, err := f.addInstance(m.Serve, m.Role, false); err != nil {
			return nil, nil, err
		}
	}
	if err := f.run(); err != nil {
		return nil, nil, err
	}
	t, err := f.tally()
	if err != nil {
		return nil, nil, err
	}
	if cfg.Disagg != nil {
		return nil, f.disaggStats(t), nil
	}
	return f.stats(t), nil, nil
}

// stats assembles a monolithic fleet's report.
func (f *fleetSim) stats(t *totals) *Stats {
	st := &Stats{
		RouterPolicy: f.cfg.Policy.String(),
		Offered:      len(f.reqs),
		Rejected:     f.rejected,
		Unroutable:   f.unroutable,
		Routed:       f.placed,
		Completed:    t.completed,
		Abandoned:    t.abandoned,
		Preemptions:  t.preemptions,
		Pooled:       t.Pooled,
		Chaos:        f.finishChaos(),
		Routing:      f.prefill.rec.Stats(),
		KVCache:      t.kvCache,
	}
	for i, m := range f.members {
		st.Instances = append(st.Instances, InstanceStats{
			Name:     m.in.Name(),
			Platform: m.in.Platform().Name,
			Routed:   m.in.Routed(),
			Serve:    *t.serve[i],
		})
	}
	return st
}
