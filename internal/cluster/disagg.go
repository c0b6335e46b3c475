package cluster

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// Prefill/decode disaggregation: fleet members take a role, requests
// routed to a prefill-only instance run prompt processing there, then
// hand their KV cache to a decode-capable instance over a FIFO transfer
// link per (source, destination) pair, priced by TransferModel. Prefill
// is compute-bound and decode memory-bandwidth-bound, so the two phases
// want different hardware — but splitting them (DistServe/Splitwise
// style) only pays if moving the KV state is cheap enough, which is
// exactly what coupled and PCIe platforms disagree on.

// Role assigns a fleet member to a disaggregation pool.
type Role int

const (
	// RoleBoth serves requests end to end — a monolithic instance that
	// participates in prefill placement and can also absorb handoffs.
	RoleBoth Role = iota
	// RolePrefill runs prompt processing only: every admitted request
	// stops at its first token and hands its KV cache away.
	RolePrefill
	// RoleDecode resumes handed-off requests mid-stream; the front door
	// never routes fresh arrivals here.
	RoleDecode
)

func (r Role) String() string {
	switch r {
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	case RoleBoth:
		return "both"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// ParseRole maps a fleet-spec role name to a Role; the empty string is
// RoleBoth (an untagged member serves monolithically).
func ParseRole(name string) (Role, error) {
	switch name {
	case "prefill":
		return RolePrefill, nil
	case "decode":
		return RoleDecode, nil
	case "both", "":
		return RoleBoth, nil
	}
	return 0, fmt.Errorf("cluster: unknown role %q (have prefill|decode|both)", name)
}

// inRole reports whether a member with role r belongs to the members
// scope covers: the prefill-capable pool for RolePrefill, the
// decode-capable pool for RoleDecode, the whole fleet for RoleBoth.
func inRole(r, scope Role) bool {
	switch scope {
	case RolePrefill:
		return r != RoleDecode
	case RoleDecode:
		return r != RolePrefill
	default:
		return true
	}
}

// Disaggregation is the Config section that splits a fleet into a
// prefill-capable and a decode-capable pool. Config.Policy places fresh
// arrivals on the prefill pool. At least one prefill-capable
// (prefill|both) and one decode-capable (decode|both) member are
// required, and every member serves the same model (the handed-off KV
// cache is sized by it).
type Disaggregation struct {
	// DecodePolicy places completed prefills on the decode pool. Zero
	// value RoundRobin; the spec front door defaults to least-kv —
	// decode placement is a KV-capacity decision.
	DecodePolicy Policy
	// LinkAwareDecode, when set, overrides DecodePolicy's pick with a
	// transfer-aware one: each handoff goes to the fitting decode
	// instance with the earliest projected landing — the (src,dst)
	// link's FIFO backlog plus the exposed wire time for the bytes
	// actually shipped (prefix-cached blocks excluded) — ties to the
	// lowest KV pressure, then the lowest index. Off, DecodePolicy
	// places every handoff.
	LinkAwareDecode bool
	// Transfer prices the KV handoff between pools.
	Transfer TransferModel
}

// validate checks the pool split and the transfer model against the
// fleet it splits.
func (d *Disaggregation) validate(c *Config) error {
	if err := d.Transfer.validate(); err != nil {
		return err
	}
	// KV handoffs originate only on RolePrefill instances; an all-"both"
	// fleet never transfers and needs no priceable link. Autoscaled
	// prefill instances count: the controller can mint handoff sources
	// mid-run.
	transfersPossible := c.Autoscale != nil && c.Autoscale.Role == RolePrefill
	for _, m := range c.Instances {
		if m.Role == RolePrefill {
			transfersPossible = true
		}
	}
	// unpriceable reports a platform a KV handoff could not be priced
	// against. hw.Validate deliberately permits zero interconnect
	// bandwidth on unified-physical-memory platforms (their CPU↔GPU
	// transfers are free), but a KV handoff between *instances* still
	// crosses a wire: with no override, TransferModel.Time would divide
	// by zero and price every transfer at +Inf. Reject the fleet here,
	// naming the platform, instead of simulating nonsense.
	unpriceable := func(p *hw.Platform) bool {
		return transfersPossible && d.Transfer.BandwidthGBps == 0 && p.IC.BandwidthGBps <= 0
	}
	model := c.Instances[0].Serve.Model.Name
	var prefillable, decodable int
	for i, m := range c.Instances {
		if p := m.Serve.Platform; unpriceable(p) {
			return fmt.Errorf("cluster: platform %q has no interconnect bandwidth to price KV transfers (unified-memory platforms may declare zero); set Transfer.BandwidthGBps or give the platform a positive IC bandwidth", p.Name)
		}
		if m.Serve.Model.Name != model {
			return fmt.Errorf("cluster: instance %d serves %s, but a disaggregated fleet hands KV caches between members of one model (%s)", i, m.Serve.Model.Name, model)
		}
		if m.Role != RolePrefill {
			decodable++
		}
		if m.Role != RoleDecode {
			prefillable++
		}
	}
	if prefillable == 0 {
		return fmt.Errorf("cluster: fleet has no prefill-capable (prefill or both) instances")
	}
	if decodable == 0 {
		return fmt.Errorf("cluster: fleet has no decode-capable (decode or both) instances")
	}
	// An autoscaled instance can be a transfer endpoint too (source when
	// scaling prefill, destination when scaling decode or both), so its
	// platform faces the same zero-bandwidth trap as the members.
	if a := c.Autoscale; a != nil {
		if p := a.Template.Platform; unpriceable(p) {
			return fmt.Errorf("cluster: autoscale template platform %q has no interconnect bandwidth to price KV transfers; set Transfer.BandwidthGBps or give the platform a positive IC bandwidth", p.Name)
		}
		if a.Template.Model.Name != model {
			return fmt.Errorf("cluster: autoscale template serves %s, but the fleet serves %s", a.Template.Model.Name, model)
		}
	}
	return nil
}

// handoffs is the KV-handoff state of a disaggregated fleet: the
// transfer model, the per-link FIFOs and fault divisors, and the
// transfer ledger.
type handoffs struct {
	model       TransferModel
	linkAware   bool
	bytesPerTok float64
	// links maps a (src,dst) member pair to its busy-until instant
	// (FIFO per link); slow carries degraded-link fault divisors.
	links map[[2]int]sim.Time
	slow  map[[2]int]float64
	// pending counts caches on the wire or queued for it — the
	// transfer-queue autoscale signal.
	pending                        int
	transfers, drops               int
	bytesMoved                     float64
	wireTotal, stallTotal, wireMax sim.Time
}

// inFlight is the pending-transfer count; zero for a monolithic fleet.
func (h *handoffs) inFlight() int {
	if h == nil {
		return 0
	}
	return h.pending
}

// dropped counts handoffs no decode instance could ever hold; zero for
// a monolithic fleet.
func (h *handoffs) dropped() int {
	if h == nil {
		return 0
	}
	return h.drops
}

// wireTime prices one transfer, degraded-link faults applied.
func (f *fleetSim) wireTime(src, dst int, bytes float64) sim.Time {
	wire := f.dis.model.Time(f.members[src].in.Platform(), f.members[dst].in.Platform(), bytes)
	if s, ok := f.dis.slow[[2]int{src, dst}]; ok {
		wire = sim.Time(float64(wire) * s)
	}
	return wire
}

// ship moves one handoff's cache from src to dst: the transfer starts
// when the (src,dst) link frees (FIFO per link) and occupies it for the
// full wire time; the request lands after the exposed tail — with
// overlap, decode starts before the last bytes arrive.
func (f *fleetSim) ship(now sim.Time, src, dst int, h serve.Handoff, bytes float64) {
	d := f.dis
	wire := f.wireTime(src, dst, bytes)
	key := [2]int{src, dst}
	start := now
	if d.links[key] > start {
		start = d.links[key]
	}
	d.links[key] = start + wire
	land := start + d.model.Exposed(wire)
	d.transfers++
	d.pending++
	d.bytesMoved += bytes
	d.wireTotal += wire
	d.stallTotal += land - now
	if wire > d.wireMax {
		d.wireMax = wire
	}
	srcName := f.members[src].in.Name()
	link := srcName + "→" + f.members[dst].in.Name()
	f.cal.Schedule(start, func(at sim.Time) {
		f.emit(at, serve.EventKVTransferStart, h.Req, srcName, link)
	})
	f.cal.Schedule(land, func(at sim.Time) { f.land(at, src, dst, h, link) })
}

// land completes one transfer: the request resumes on its destination,
// or — when the destination died while the cache was on the wire — the
// still-staged cache re-ships from the source to a freshly picked
// decode instance (a reported drop when none remains; the bytes are
// re-sized against the new destination's cache).
func (f *fleetSim) land(at sim.Time, src, dst int, h serve.Handoff, link string) {
	if f.err != nil {
		return
	}
	f.dis.pending--
	dstIn := f.members[dst].in
	if dstIn.State() == serve.StateStopped {
		f.placeHandoff(at, src, h, true)
		return
	}
	f.emit(at, serve.EventKVTransferDone, h.Req, dstIn.Name(), link)
	if err := dstIn.Resume(at, h); err != nil {
		// Pick only offers instances that fit, draining destinations
		// still honor committed transfers, and dead ones re-route
		// above, so Resume cannot refuse; treat a refusal as the bug it
		// would be.
		f.fail(fmt.Errorf("cluster: %s refused resumed request %d: %w", dstIn.Name(), h.Req.ID, err))
	}
}

// placeHandoff picks a decode instance for a staged cache and ships it
// there. When none can ever hold the request, the prefill work is lost
// and the drop is reported in the ledger. reship marks a cache whose
// first destination died while it was on the wire.
func (f *fleetSim) placeHandoff(now sim.Time, src int, h serve.Handoff, reship bool) {
	p := f.pickDecode(now, src, h)
	if p < 0 {
		f.dis.drops++
		f.emit(now, serve.EventUnroutable, h.Req, f.members[src].in.Name(), "")
		return
	}
	dst := f.decode.idx[p]
	if rec := f.decode.rec; rec != nil {
		rec.Record(now, h.Req, f.decode.ins, p, reship, f.linkWait(now, src, dst))
	}
	f.ship(now, src, dst, h, f.shipBytes(dst, h))
}

// shipBytes sizes one handoff's transfer to a destination member:
// leading prompt blocks the destination's prefix cache already holds
// device-resident never cross the wire — only the uncached tail ships.
// On a cacheless fleet the overlap is always zero and every handoff
// ships its full KV footprint.
//
// The overlap is frozen at ship time: blocks counted as cached here may
// be evicted before the transfer lands, in which case Acquire
// re-materializes them as misses without the wire ever being charged —
// an optimistic approximation that slightly understates transfer bytes
// under destination cache churn.
func (f *fleetSim) shipBytes(dst int, h serve.Handoff) float64 {
	kv := h.KVLen()
	if cached := f.members[dst].in.CachedPrefixTokens(h.Req); cached > 0 {
		kv -= cached
		if kv < 0 {
			kv = 0
		}
	}
	return float64(kv) * f.dis.bytesPerTok
}

// pickDecode places one handoff on the decode pool: DecodePolicy's
// pick by default, or — with LinkAwareDecode — the fitting instance
// with the earliest projected landing (link FIFO backlog plus the
// exposed wire time for the bytes this destination actually needs),
// ties broken by KV pressure then lowest index. Returns the decode-pool
// index, or -1 when no instance can ever hold the request.
func (f *fleetSim) pickDecode(now sim.Time, src int, h serve.Handoff) int {
	if !f.dis.linkAware {
		return f.decode.rt.Pick(h.Req, f.decode.ins)
	}
	best := -1
	var bestLand sim.Time
	var bestKV float64
	for i, in := range f.decode.ins {
		if !in.Accepting() || !in.Fits(h.Req) {
			continue
		}
		dst := f.decode.idx[i]
		land := now + f.linkWait(now, src, dst) + f.dis.model.Exposed(f.wireTime(src, dst, f.shipBytes(dst, h)))
		kv := in.KVPressure()
		if best < 0 || land < bestLand || (land == bestLand && kv < bestKV) {
			best, bestLand, bestKV = i, land, kv
		}
	}
	return best
}

// linkWait reports the (src,dst) link's FIFO backlog at now — how long
// a cache shipped this instant would wait before its wire time starts.
// Decode decision records carry it.
func (f *fleetSim) linkWait(now sim.Time, src, dst int) sim.Time {
	if busy := f.dis.links[[2]int{src, dst}]; busy > now {
		return busy - now
	}
	return 0
}

// degradeLink applies a link fault: the (Target, Dst) link's wire
// times stretch by Factor from now on. A destination beyond the
// membership makes it a no-op.
func (f *fleetSim) degradeLink(now sim.Time, ft Fault) {
	if ft.Dst >= len(f.members) {
		return
	}
	f.dis.slow[[2]int{ft.Target, ft.Dst}] = ft.Factor
	f.chaos.DegradedLinks++
	f.emitFleet(serve.Event{
		Time: now, Type: serve.EventFaultInjected,
		Link:   f.members[ft.Target].in.Name() + "→" + f.members[ft.Dst].in.Name(),
		Detail: fmt.Sprintf("link-degraded ×%g", ft.Factor),
	})
}

// disaggStats assembles a disaggregated fleet's report.
func (f *fleetSim) disaggStats(t *totals) *DisaggStats {
	d := f.dis
	st := &DisaggStats{
		PrefillPolicy:  f.cfg.Policy.String(),
		DecodePolicy:   f.cfg.Disagg.DecodePolicy.String(),
		Offered:        len(f.reqs),
		Rejected:       f.rejected,
		Unroutable:     f.unroutable,
		Routed:         f.placed,
		HandedOff:      t.handedOff,
		TransferDrops:  d.drops,
		Resumed:        t.resumed,
		Completed:      t.completed,
		Abandoned:      t.abandoned,
		Preemptions:    t.preemptions,
		Transfers:      d.transfers,
		KVBytesMoved:   d.bytesMoved,
		Pooled:         t.Pooled,
		Chaos:          f.finishChaos(),
		PrefillRouting: f.prefill.rec.Stats(),
		DecodeRouting:  f.decode.rec.Stats(),
		KVCache:        t.kvCache,
	}
	if d.transfers > 0 {
		st.MeanTransfer = d.wireTotal / sim.Time(d.transfers)
		st.MeanTransferStall = d.stallTotal / sim.Time(d.transfers)
		st.MaxTransfer = d.wireMax
	}
	for i, m := range f.members {
		st.Instances = append(st.Instances, DisaggInstanceStats{
			Name:     m.in.Name(),
			Platform: m.in.Platform().Name,
			Role:     m.role.String(),
			Routed:   m.in.Routed(),
			Resumed:  t.serve[i].Resumed,
			Serve:    *t.serve[i],
		})
	}
	return st
}

// DisaggInstanceStats pairs one instance's identity, role, and
// placement counts with its full serving statistics.
type DisaggInstanceStats struct {
	Name     string
	Platform string
	Role     string
	// Routed counts fresh arrivals the front door placed here plus
	// requests requeued here after a crash, so a decode-only member
	// that took mid-stream crash victims has Routed > 0. Resumed
	// counts handoffs absorbed from the prefill pool.
	Routed  int
	Resumed int
	Serve   serve.Stats
}

// DisaggStats summarizes a disaggregated fleet simulation. TTFTs come
// from wherever prefill ran — every request whose first token was
// served contributes one, including the rare request later dropped for
// want of a decode instance (its user did receive that token) — while
// TPOT/E2E come from wherever the request finished, so transfer stalls
// are included in TPOT and E2E. SLO attainment is measured over the
// same TTFT samples.
type DisaggStats struct {
	// PrefillPolicy / DecodePolicy name the placement policies.
	PrefillPolicy string
	DecodePolicy  string

	// The front-door ledger: every offered request is exactly one of
	// rejected (admission control), unroutable (fits no prefill-capable
	// instance), or routed.
	Offered    int
	Rejected   int
	Unroutable int
	Routed     int

	// The handoff ledger: every routed request settles as a completion
	// (single-token prefills and RoleBoth instances complete locally),
	// an abandonment, or a handoff; every handoff becomes exactly one
	// transfer + resumption or one reported drop (no decode instance
	// could ever hold it).
	HandedOff     int
	TransferDrops int
	Resumed       int

	// Completed / Abandoned / Preemptions sum over instances.
	Completed   int
	Abandoned   int
	Preemptions int

	// Transfer economics over the simulation.
	Transfers    int
	KVBytesMoved float64
	// MeanTransfer / MaxTransfer are wire times; MeanTransferStall adds
	// per-link queueing — the delay a request actually experiences
	// between finishing prefill and landing on its decode instance.
	MeanTransfer      sim.Time
	MaxTransfer       sim.Time
	MeanTransferStall sim.Time

	// Pooled carries the latency percentiles, fleet rates, and the
	// spread of placed work (routed + resumed).
	Pooled

	// Chaos is the churn ledger: non-nil only when autoscaling or fault
	// injection ran.
	Chaos *ChaosStats `json:",omitempty"`

	// PrefillRouting / DecodeRouting carry per-pool decision records and
	// counterfactual replays; nil unless Config.CounterfactualK
	// was set. Decode decisions additionally record the chosen link's
	// FIFO backlog at pick time (Decision.LinkWait).
	PrefillRouting *RoutingStats `json:",omitempty"`
	DecodeRouting  *RoutingStats `json:",omitempty"`

	// KVCache sums the per-instance prefix-cache ledgers across both
	// pools (hit rate recomputed over the pooled counts). Nil (and
	// omitted from JSON) for a cacheless fleet.
	KVCache *serve.KVCacheStats `json:",omitempty"`

	Instances []DisaggInstanceStats
}
