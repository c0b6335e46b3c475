package serve

import (
	"encoding/json"
	"fmt"

	"github.com/skipsim/skip/internal/sim"
)

// EventType classifies a simulation lifecycle event.
type EventType int

const (
	// EventArrival: a request reached a server's wait queue.
	EventArrival EventType = iota
	// EventRejected: admission control dropped the request at the front
	// door (cluster simulations only).
	EventRejected
	// EventUnroutable: no instance could ever fit the request's KV
	// footprint (cluster simulations only).
	EventUnroutable
	// EventRouted: the front-end placed the request on an instance
	// (cluster simulations only; Instance names it).
	EventRouted
	// EventAdmitted: the request left the wait queue and joined the
	// running batch, reserving its prompt's KV.
	EventAdmitted
	// EventPreempted: KV pressure evicted the request from the running
	// batch; it re-queues for recomputation.
	EventPreempted
	// EventAbandoned: the request waited past its patience and was
	// dropped.
	EventAbandoned
	// EventFirstToken: the request's first output token was emitted (the
	// TTFT instant).
	EventFirstToken
	// EventKVTransferStart: a completed prefill's KV cache started moving
	// toward its decode instance (disaggregated simulations only; Link
	// names the source→destination pair).
	EventKVTransferStart
	// EventKVTransferDone: the KV cache landed on the decode instance,
	// which resumes the request mid-stream (disaggregated simulations
	// only).
	EventKVTransferDone
	// EventCompleted: the request finished generating.
	EventCompleted
	// EventProgress: a periodic completion-count tick (Completed of
	// Total), emitted by the Simulate dispatcher rather than the
	// scheduler.
	EventProgress
	// EventInstanceJoin: a new instance joined the running fleet
	// (autoscale spin-up; dynamic fleets only). Instance names it;
	// RequestID is absent.
	EventInstanceJoin
	// EventDrainStart: the instance stopped accepting new work and will
	// leave once its queue and running batch settle (autoscale
	// shrink; dynamic fleets only).
	EventDrainStart
	// EventInstanceGone: the instance left the fleet — a drain ran dry
	// or a crash killed it outright (dynamic fleets only).
	EventInstanceGone
	// EventFaultInjected: the fault plan fired — a crash, a slow-node
	// latency multiplier, or a degraded transfer link. Detail carries
	// the fault kind; Instance names the victim (empty for link
	// faults).
	EventFaultInjected
	// EventRequeued: a request evicted by a crash was re-placed on
	// another instance through the router (dynamic fleets only;
	// Instance names the new placement). Evictions that fit nowhere
	// emit EventUnroutable instead and are reported dropped.
	EventRequeued
	// EventBlockHit: an admission found cached prefix blocks (prefix
	// cache only). Detail carries the lookup's aggregate counts
	// ("hits=H restored=R misses=M credit=C").
	EventBlockHit
	// EventBlockEvict: an admission's allocations evicted cold blocks
	// (prefix cache only). Detail: "evicted=E spilled=S host_dropped=D".
	EventBlockEvict
	// EventBlockRestore: host-tier blocks were promoted back to device
	// for an admission, stalling the request by the interconnect-priced
	// copy (prefix cache only). Detail: "blocks=N bytes=B".
	EventBlockRestore
	// EventStateSample: a periodic instance-state snapshot (queue depth,
	// running batch, KV occupancy, cumulative cache counters) carried in
	// State. Emitted at every scheduling event only when
	// Config.StateWindow is positive — the windowed timeline
	// aggregator's level-signal feed; default event streams never see
	// it.
	EventStateSample
)

func (t EventType) String() string {
	switch t {
	case EventArrival:
		return "arrival"
	case EventRejected:
		return "rejected"
	case EventUnroutable:
		return "unroutable"
	case EventRouted:
		return "routed"
	case EventAdmitted:
		return "admitted"
	case EventPreempted:
		return "preempted"
	case EventAbandoned:
		return "abandoned"
	case EventFirstToken:
		return "first-token"
	case EventKVTransferStart:
		return "kv-transfer-start"
	case EventKVTransferDone:
		return "kv-transfer-done"
	case EventCompleted:
		return "completed"
	case EventProgress:
		return "progress"
	case EventInstanceJoin:
		return "instance-join"
	case EventDrainStart:
		return "drain-start"
	case EventInstanceGone:
		return "instance-gone"
	case EventFaultInjected:
		return "fault-injected"
	case EventRequeued:
		return "requeued"
	case EventBlockHit:
		return "block-hit"
	case EventBlockEvict:
		return "block-evict"
	case EventBlockRestore:
		return "block-restore"
	case EventStateSample:
		return "state-sample"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is one observation of a serving or cluster simulation. Events
// are emitted synchronously from inside calendar callbacks, so for a
// fixed spec and seed the event stream is deterministic — order
// included.
type Event struct {
	// Seq numbers the event within its run's stream, starting at 1 and
	// strictly increasing — a total order that survives serialization,
	// so two JSONL dumps of the same spec and seed diff line-for-line.
	// The spec.Simulate dispatcher stamps it; events observed through
	// lower-level entry points carry Seq 0.
	Seq  int64
	Time sim.Time
	Type EventType
	// RequestID identifies the request (absent for EventProgress).
	RequestID int
	// SessionID is the request's session, when it has one.
	SessionID int64
	// Instance names the serving instance involved ("" for
	// single-instance simulations and front-door events). KV-transfer
	// events name the source instance on start and the destination on
	// done.
	Instance string
	// Link names the source→destination instance pair of a KV transfer
	// ("" for every other event type).
	Link string
	// Detail carries event-specific context: the fault kind for
	// EventFaultInjected ("crash", "slow-node ×2", "link-degraded ×4"),
	// "drained" vs "killed" for EventInstanceGone.
	Detail string
	// Completed / Total carry the EventProgress payload.
	Completed int
	Total     int
	// TTFT is the request's time-to-first-token, stamped on
	// EventFirstToken and EventCompleted (0 elsewhere, and on
	// completions that never emitted a token).
	TTFT sim.Time
	// TPOT is the request's mean inter-token time, stamped on
	// EventCompleted when the request decoded more than one token.
	TPOT sim.Time
	// Tokens is the request's delivered output-token count, stamped on
	// EventCompleted.
	Tokens int64
	// State carries the EventStateSample payload (nil for every other
	// event type).
	State *StateSample
}

// StateSample is an instance-state snapshot: the EventStateSample
// payload. Cache counters are cumulative since the start of the run
// (zero when the instance has no prefix cache).
type StateSample struct {
	// Queue / Running are the wait-queue length and running-batch size.
	Queue   int
	Running int
	// KVFrac is the KV budget fraction in use.
	KVFrac float64
	// CacheLookups / CacheHits are the prefix cache's cumulative lookup
	// and hit (device hits + host restores) counts.
	CacheLookups int64
	CacheHits    int64
}

// lifecycle reports whether the event describes an instance rather than
// a request (no RequestID to print).
func (t EventType) lifecycle() bool {
	switch t {
	case EventInstanceJoin, EventDrainStart, EventInstanceGone, EventFaultInjected, EventStateSample:
		return true
	}
	return false
}

func (e Event) String() string {
	s := fmt.Sprintf("%v %s", e.Time, e.Type)
	if e.Type == EventProgress {
		return fmt.Sprintf("%s %d/%d", s, e.Completed, e.Total)
	}
	if e.Type.lifecycle() {
		if e.Instance != "" {
			s += " @" + e.Instance
		}
		if e.Link != "" {
			s += " link=" + e.Link
		}
		if e.Detail != "" {
			s += " (" + e.Detail + ")"
		}
		return s
	}
	s += fmt.Sprintf(" req=%d", e.RequestID)
	if e.SessionID != 0 {
		s += fmt.Sprintf(" session=%d", e.SessionID)
	}
	if e.Instance != "" {
		s += " @" + e.Instance
	}
	if e.Link != "" {
		s += " link=" + e.Link
	}
	return s
}

// MarshalJSON renders the event as one compact JSONL-friendly object
// with stable snake_case keys: `{"seq":…,"t_ns":…,"type":"admitted",…}`.
// The type is its string name, the time its raw virtual-nanosecond
// count. RequestID serializes unconditionally (request 0 is real);
// everything optional is omitted when empty.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq       int64        `json:"seq"`
		TimeNs    int64        `json:"t_ns"`
		Type      string       `json:"type"`
		RequestID int          `json:"req"`
		SessionID int64        `json:"session,omitempty"`
		Instance  string       `json:"instance,omitempty"`
		Link      string       `json:"link,omitempty"`
		Detail    string       `json:"detail,omitempty"`
		Completed int          `json:"completed,omitempty"`
		Total     int          `json:"total,omitempty"`
		TTFT      int64        `json:"ttft_ns,omitempty"`
		TPOT      int64        `json:"tpot_ns,omitempty"`
		Tokens    int64        `json:"tokens,omitempty"`
		State     *StateSample `json:"state,omitempty"`
	}{e.Seq, int64(e.Time), e.Type.String(), e.RequestID,
		e.SessionID, e.Instance, e.Link, e.Detail, e.Completed, e.Total,
		int64(e.TTFT), int64(e.TPOT), e.Tokens, e.State})
}

// Observer receives simulation events as they happen. Observers must
// not retain the simulator's internal state; the Event value is theirs.
type Observer func(Event)
