package serve

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// SegmentKind classifies one span of a request's timeline.
type SegmentKind int

const (
	// SegQueue: waiting for admission (front-door routing included).
	SegQueue SegmentKind = iota
	// SegPrefill: prompt processing, admission to first token.
	SegPrefill
	// SegDecode: token generation, first token (or resume) to done.
	SegDecode
	// SegStall: prefill finished, KV transfer not yet on the wire.
	SegStall
	// SegTransfer: KV cache moving across an interconnect link.
	SegTransfer
	// SegRequeue: evicted or preempted, waiting for re-admission.
	SegRequeue
)

func (k SegmentKind) String() string {
	switch k {
	case SegQueue:
		return "queue"
	case SegPrefill:
		return "prefill"
	case SegDecode:
		return "decode"
	case SegStall:
		return "kv-stall"
	case SegTransfer:
		return "kv-transfer"
	case SegRequeue:
		return "requeue"
	default:
		return fmt.Sprintf("segment(%d)", int(k))
	}
}

// Category maps the segment kind onto its Chrome-trace category.
func (k SegmentKind) Category() trace.Category {
	switch k {
	case SegQueue:
		return trace.CatQueue
	case SegPrefill:
		return trace.CatPrefill
	case SegDecode:
		return trace.CatDecode
	case SegStall:
		return trace.CatStall
	case SegTransfer:
		return trace.CatTransfer
	default:
		return trace.CatRequeue
	}
}

// Segment is one closed span of a request's life.
type Segment struct {
	Kind  SegmentKind
	Start sim.Time
	End   sim.Time
	// Where names the serving instance the span ran on, or the
	// source→destination link for transfer segments.
	Where string
	// Note marks an abnormal close: "preempted" (KV pressure evicted
	// the running request) or "evicted" (a crash killed its instance).
	Note string
}

// RequestTimeline is one request's assembled span sequence: ordered,
// non-overlapping segments from first sight to terminal outcome.
type RequestTimeline struct {
	RequestID int
	SessionID int64
	// Routed counts trips through a front door: the initial placement
	// plus one per crash requeue (0 for single-instance serving).
	Routed int
	// Requeues counts crash-driven re-placements.
	Requeues int
	// FirstTokens counts TTFT instants observed — at most one even
	// across preemption and requeue, because arrival anchors persist.
	FirstTokens int
	// Outcome is the terminal state: "completed", "abandoned",
	// "dropped" (evicted and unroutable), "" while still in flight.
	Outcome  string
	Segments []Segment
}

// open is the in-progress segment, nil between spans.
type openSegment struct {
	kind  SegmentKind
	start sim.Time
	where string
}

type timelineState struct {
	tl   *RequestTimeline
	open *openSegment
	// hasFirst: the first token has been delivered, so later admissions
	// resume decode rather than start prefill.
	hasFirst bool
}

// TimelineBuilder assembles per-request span timelines from a lifecycle
// event stream. Install its Observe method as the simulation observer,
// then read Timelines or export Trace once the run completes. The
// builder is a pure consumer of events — it works identically for
// serve, cluster, and disagg runs, and is deterministic because the
// event stream is.
type TimelineBuilder struct {
	byReq map[int]*timelineState
	order []int // request ids in first-sight order

	// Chrome-trace thread layout: instances claim TIDs 1..N and links
	// 1001..1000+M, both in first-appearance order.
	instTID map[string]int
	linkTID map[string]int
	threads map[int]string
}

// linkTIDBase offsets link threads away from instance threads, the same
// convention streamTID uses for device streams in kernel traces.
const linkTIDBase = 1000

// NewTimelineBuilder returns an empty builder.
func NewTimelineBuilder() *TimelineBuilder {
	return &TimelineBuilder{
		byReq:   make(map[int]*timelineState),
		instTID: make(map[string]int),
		linkTID: make(map[string]int),
		threads: make(map[int]string),
	}
}

func (b *TimelineBuilder) instanceTID(name string) int {
	if tid, ok := b.instTID[name]; ok {
		return tid
	}
	tid := len(b.instTID) + 1
	b.instTID[name] = tid
	label := name
	if label == "" {
		label = "server"
	}
	b.threads[tid] = label
	return tid
}

func (b *TimelineBuilder) linkThreadID(name string) int {
	if tid, ok := b.linkTID[name]; ok {
		return tid
	}
	tid := linkTIDBase + len(b.linkTID) + 1
	b.linkTID[name] = tid
	b.threads[tid] = "link " + name
	return tid
}

func (b *TimelineBuilder) state(e Event) *timelineState {
	st := b.byReq[e.RequestID]
	if st == nil {
		st = &timelineState{tl: &RequestTimeline{RequestID: e.RequestID, SessionID: e.SessionID}}
		b.byReq[e.RequestID] = st
		b.order = append(b.order, e.RequestID)
	}
	if st.tl.SessionID == 0 {
		st.tl.SessionID = e.SessionID
	}
	return st
}

// closeOpen ends the in-progress segment at now. Zero-length stall
// segments are dropped — a transfer that hits a free link stalls for
// exactly nothing, and a span of nothing is noise in the viewer.
func (st *timelineState) closeOpen(now sim.Time, note string) {
	if st.open == nil {
		return
	}
	seg := Segment{Kind: st.open.kind, Start: st.open.start, End: now, Where: st.open.where, Note: note}
	st.open = nil
	if seg.Kind == SegStall && seg.Start == seg.End {
		return
	}
	st.tl.Segments = append(st.tl.Segments, seg)
}

func (st *timelineState) openAt(kind SegmentKind, now sim.Time, where string) {
	st.open = &openSegment{kind: kind, start: now, where: where}
}

// Observe consumes one lifecycle event. It is an Observer.
func (b *TimelineBuilder) Observe(e Event) {
	switch e.Type {
	case EventProgress, EventInstanceJoin, EventDrainStart, EventInstanceGone, EventFaultInjected:
		return
	}
	st := b.state(e)
	switch e.Type {
	case EventRouted:
		st.tl.Routed++
		b.instanceTID(e.Instance)
		st.closeOpen(e.Time, "")
		st.openAt(SegQueue, e.Time, e.Instance)
	case EventArrival:
		b.instanceTID(e.Instance)
		switch {
		case st.open == nil:
			// Fresh single-instance arrival, or the decode-side arrival
			// after a KV transfer landed: the request queues again.
			st.openAt(SegQueue, e.Time, e.Instance)
		case st.open.where != e.Instance:
			// A crash killed the open segment's instance; the router
			// re-placed the request here (EventRequeued follows). Close
			// the orphaned span as evicted and start the requeue gap.
			st.closeOpen(e.Time, "evicted")
			st.openAt(SegRequeue, e.Time, e.Instance)
		}
		// Same instance with an open queue span (the routed instant):
		// nothing to do — the queue segment is already running.
	case EventRequeued:
		st.tl.Requeues++
	case EventAdmitted:
		st.closeOpen(e.Time, "")
		if st.hasFirst {
			st.openAt(SegDecode, e.Time, e.Instance)
		} else {
			st.openAt(SegPrefill, e.Time, e.Instance)
		}
	case EventFirstToken:
		st.closeOpen(e.Time, "")
		st.hasFirst = true
		st.tl.FirstTokens++
		st.openAt(SegDecode, e.Time, e.Instance)
	case EventPreempted:
		st.closeOpen(e.Time, "preempted")
		st.openAt(SegRequeue, e.Time, e.Instance)
	case EventKVTransferStart:
		// The span since first-token was decode-shaped but nothing
		// decoded — the prefilled cache sat waiting for the wire.
		if st.open != nil && (st.open.kind == SegDecode || st.open.kind == SegPrefill) {
			st.open.kind = SegStall
		}
		st.closeOpen(e.Time, "")
		b.linkThreadID(e.Link)
		st.openAt(SegTransfer, e.Time, e.Link)
	case EventKVTransferDone:
		st.closeOpen(e.Time, "")
	case EventCompleted:
		st.closeOpen(e.Time, "")
		st.tl.Outcome = "completed"
	case EventAbandoned:
		st.closeOpen(e.Time, "")
		st.tl.Outcome = "abandoned"
	case EventRejected:
		st.tl.Outcome = "rejected"
	case EventUnroutable:
		if len(st.tl.Segments) > 0 || st.open != nil {
			// A requeue that fit nowhere: the eviction is final.
			st.closeOpen(e.Time, "evicted")
			st.tl.Outcome = "dropped"
		} else {
			st.tl.Outcome = "unroutable"
		}
	}
}

// Timelines returns the assembled timelines in first-sight order.
func (b *TimelineBuilder) Timelines() []*RequestTimeline {
	out := make([]*RequestTimeline, 0, len(b.order))
	for _, id := range b.order {
		out = append(out, b.byReq[id].tl)
	}
	return out
}

// Reconcile checks the structural invariants every finished run must
// satisfy: no request still mid-span, segments ordered and
// non-overlapping, at most one TTFT instant per request, and exactly
// one for every completed request.
func (b *TimelineBuilder) Reconcile() error {
	for _, id := range b.order {
		st := b.byReq[id]
		tl := st.tl
		if st.open != nil {
			return fmt.Errorf("timeline: request %d ends with an open %s segment", id, st.open.kind)
		}
		for i, seg := range tl.Segments {
			if seg.End < seg.Start {
				return fmt.Errorf("timeline: request %d segment %d (%s) ends before it starts", id, i, seg.Kind)
			}
			if i > 0 && seg.Start < tl.Segments[i-1].End {
				return fmt.Errorf("timeline: request %d segment %d (%s) overlaps its predecessor", id, i, seg.Kind)
			}
		}
		if tl.FirstTokens > 1 {
			return fmt.Errorf("timeline: request %d sampled TTFT %d times", id, tl.FirstTokens)
		}
		if tl.Outcome == "completed" && tl.FirstTokens != 1 {
			return fmt.Errorf("timeline: completed request %d has %d first-token spans, want 1", id, tl.FirstTokens)
		}
		if tl.Outcome == "" && len(tl.Segments) > 0 {
			return fmt.Errorf("timeline: request %d has spans but no terminal outcome", id)
		}
	}
	return nil
}

// Trace exports every timeline as Chrome-trace complete events: one
// thread per instance (TIDs from 1, named), one thread per transfer
// link (TIDs from 1001), each segment a complete event in its kind's
// category carrying the request id. The result loads in Perfetto /
// chrome://tracing with instances and links as labeled tracks.
func (b *TimelineBuilder) Trace() *trace.Trace {
	t := trace.New()
	t.Threads = make(map[int]string, len(b.threads))
	for tid, name := range b.threads {
		t.Threads[tid] = name
	}
	for _, id := range b.order {
		tl := b.byReq[id].tl
		for _, seg := range tl.Segments {
			tid := b.instTID[seg.Where]
			if seg.Kind == SegTransfer {
				tid = b.linkTID[seg.Where]
			}
			name := seg.Kind.String()
			if seg.Note != "" {
				name += " [" + seg.Note + "]"
			}
			t.Append(trace.Event{
				Name: name, Cat: seg.Kind.Category(),
				Ts: seg.Start, Dur: seg.End - seg.Start,
				TID: tid, Req: tl.RequestID,
			})
		}
	}
	// Order by (Ts, TID), and same-timestamp events on one thread by
	// emission (request) order, which keeps the file diffable.
	slices.SortStableFunc(t.Events, func(a, b trace.Event) int {
		if c := cmp.Compare(a.Ts, b.Ts); c != 0 {
			return c
		}
		return cmp.Compare(a.TID, b.TID)
	})
	return t
}
