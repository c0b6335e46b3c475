// Package trace defines the profiler trace format the whole system speaks:
// timestamped complete events in the Chrome-trace style emitted by the
// PyTorch Profiler (cpu_op / cuda_runtime / kernel categories, correlation
// IDs linking launch calls to kernels, thread and stream identifiers).
//
// The simulator's executor writes traces; SKIP (internal/core) and the
// fusion recommender (internal/fusion) read them. Nothing downstream of
// this package knows whether a trace came from the simulator or from a
// real profiler export, which is exactly the property the paper's tool
// has.
package trace

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/skipsim/skip/internal/sim"
)

// Category classifies an event, mirroring PyTorch Profiler's "cat" field.
type Category string

const (
	// CatOperator marks host-side ATen operator spans (cat "cpu_op").
	CatOperator Category = "cpu_op"
	// CatRuntime marks CUDA runtime API calls, e.g. cudaLaunchKernel
	// (cat "cuda_runtime").
	CatRuntime Category = "cuda_runtime"
	// CatKernel marks device kernel executions (cat "kernel").
	CatKernel Category = "kernel"
	// CatMemcpy marks host↔device copies.
	CatMemcpy Category = "gpu_memcpy"

	// Request-span categories: serving-layer per-request timeline
	// segments assembled from the lifecycle event stream (one TID per
	// serving instance, link TIDs for KV transfers). They carry a Req
	// id instead of a correlation chain and are ignored by the
	// kernel-level analyses above.

	// CatQueue marks time a request spent in a wait queue before
	// admission (including the front-door routing instant).
	CatQueue Category = "queue"
	// CatPrefill marks prompt processing: admission to first token.
	CatPrefill Category = "prefill"
	// CatDecode marks token generation: first token (or a mid-stream
	// resume) to completion.
	CatDecode Category = "decode"
	// CatStall marks time a prefilled request sat finished on its
	// prefill instance waiting for its KV transfer to start moving.
	CatStall Category = "kv_stall"
	// CatTransfer marks a KV cache moving across an interconnect link;
	// these spans live on link TIDs, not instance TIDs.
	CatTransfer Category = "kv_transfer"
	// CatRequeue marks the gap between a preemption or crash eviction
	// and the request's next admission.
	CatRequeue Category = "requeue"
)

// RequestSpan reports whether the category is a serving-layer request
// timeline segment (as opposed to a kernel-level profiler event).
func (c Category) RequestSpan() bool {
	switch c {
	case CatQueue, CatPrefill, CatDecode, CatStall, CatTransfer, CatRequeue:
		return true
	}
	return false
}

// Event is one complete ("ph":"X") trace event.
type Event struct {
	// Name is the operator, runtime call, or kernel symbol.
	Name string `json:"name"`
	// Cat is the event category.
	Cat Category `json:"cat"`
	// Ts is the start timestamp.
	Ts sim.Time `json:"ts"`
	// Dur is the duration.
	Dur sim.Time `json:"dur"`
	// TID identifies the host thread (operators, runtime calls) or the
	// device stream (kernels, copies).
	TID int `json:"tid"`
	// Correlation links a CatRuntime launch to the CatKernel it
	// triggered, as CUPTI correlation IDs do. Zero means unlinked.
	Correlation uint64 `json:"correlation,omitempty"`
	// Stream is the device stream for kernel/memcpy events.
	Stream int `json:"stream,omitempty"`
	// FLOPs and Bytes carry the kernel's cost descriptor so analysis can
	// reason about compute intensity (optional; zero when unknown).
	FLOPs float64 `json:"flops,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`
	// Req identifies the serving request a request-span category event
	// belongs to. Only meaningful when Cat.RequestSpan() — request 0 is
	// real, so presence is keyed on the category, not the value.
	Req int `json:"req,omitempty"`
}

// End returns the event's end timestamp.
func (e *Event) End() sim.Time { return e.Ts + e.Dur }

// Contains reports whether other begins within e's span. Per the paper
// (§IV-A): "An Aten operator p is designated as the parent of a
// subsequent child operator c and/or CUDA runtime call l, if their start
// times fall within p's duration."
func (e *Event) Contains(other *Event) bool {
	return other.Ts >= e.Ts && other.Ts < e.End()
}

// Trace is an ordered collection of events from one profiled run.
type Trace struct {
	// Events holds all events. Builder.Trace and Sort order them by
	// start time, events that start together in the order they were
	// recorded.
	Events []Event
	// Meta records run provenance: platform, model, batch, mode, etc.
	Meta map[string]string
	// Threads names TIDs for the viewer (instance names, link names).
	// Serialized as Chrome "thread_name" metadata events; nil when the
	// producer assigns no names.
	Threads map[int]string
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{Meta: make(map[string]string)}
}

// Append adds an event.
func (t *Trace) Append(e Event) { t.Events = append(t.Events, e) }

// Sort orders events by start time, stably, so same-timestamp events keep
// their order. Traces loaded from JSON are sorted here; a Builder's
// trace is already in this order unless its emitter broke it (see
// Builder.Trace). A sorted trace costs one comparison pass.
func (t *Trace) Sort() { sortByTs(t.Events) }

// byTs orders events by start time.
func byTs(a, b Event) int { return cmp.Compare(a.Ts, b.Ts) }

// sortByTs sorts events stably by start time; see Trace.Sort.
func sortByTs(ev []Event) {
	if !slices.IsSortedFunc(ev, byTs) {
		slices.SortStableFunc(ev, byTs)
	}
}

// permute moves the event at index perm[j] to j, for every j, in place:
// it follows each cycle of the permutation from its first position,
// pulling every event into place and marking the position done, so each
// event moves once. perm is left as the identity.
func permute(ev []Event, perm []uint64) {
	for j := range perm {
		if perm[j] == uint64(j) {
			continue
		}
		first := ev[j]
		k := j
		for {
			src := int(perm[k])
			perm[k] = uint64(k)
			if src == j {
				ev[k] = first
				break
			}
			ev[k] = ev[src]
			k = src
		}
	}
}

// Count returns the number of events of one category, without copying
// them.
func (t *Trace) Count(cat Category) int {
	n := 0
	for i := range t.Events {
		if t.Events[i].Cat == cat {
			n++
		}
	}
	return n
}

// Filter returns the events of one category, in trace order.
func (t *Trace) Filter(cat Category) []Event {
	n := t.Count(cat)
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, e := range t.Events {
		if e.Cat == cat {
			out = append(out, e)
		}
	}
	return out
}

// Kernels returns kernel events sorted by start time. A sorted trace
// (every built or loaded one) yields them already in order, so the sort
// runs only for traces whose events were appended out of order.
func (t *Trace) Kernels() []Event {
	ks := t.Filter(CatKernel)
	sortByTs(ks)
	return ks
}

// Span returns the earliest start and latest end across all events.
// An empty trace spans [0,0).
func (t *Trace) Span() (start, end sim.Time) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	start = t.Events[0].Ts
	for _, e := range t.Events {
		if e.Ts < start {
			start = e.Ts
		}
		if e.End() > end {
			end = e.End()
		}
	}
	return start, end
}

// Validate checks structural invariants: non-negative durations, kernels
// carrying correlation IDs, and every kernel correlation matched by
// exactly one runtime launch.
//
// When launch and kernel correlations each strictly increase in trace
// order, as one stream of launches emits them, a single forward merge
// matches them and nothing is allocated. Otherwise the launch ids are
// sorted and each kernel binary-searches them.
func (t *Trace) Validate() error {
	n, merge := 0, true
	var lastLaunch, lastKernel uint64
	for i := range t.Events {
		e := &t.Events[i]
		if e.Dur < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative duration %d", i, e.Name, e.Dur)
		}
		switch {
		case e.launch():
			n++
			merge = merge && e.Correlation > lastLaunch
			lastLaunch = e.Correlation
		case e.Cat == CatKernel:
			merge = merge && e.Correlation > lastKernel
			lastKernel = e.Correlation
		}
	}
	// Off the merge path, the launch correlations, sorted: a kernel's
	// launch count is the length of its run of equal ids.
	var launches []uint64
	if !merge {
		launches = make([]uint64, 0, n)
		for i := range t.Events {
			if e := &t.Events[i]; e.launch() {
				launches = append(launches, e.Correlation)
			}
		}
		slices.Sort(launches)
	}
	next := 0 // merge cursor: no launch before it carries the current kernel's id
	for i := range t.Events {
		e := &t.Events[i]
		if e.Cat != CatKernel {
			continue
		}
		if e.Correlation == 0 {
			return fmt.Errorf("trace: kernel event %d (%s) lacks a correlation id", i, e.Name)
		}
		matched := 0
		if merge {
			for next < len(t.Events) && (!t.Events[next].launch() || t.Events[next].Correlation < e.Correlation) {
				next++
			}
			if next < len(t.Events) && t.Events[next].Correlation == e.Correlation {
				matched = 1
			}
		} else {
			lo, _ := slices.BinarySearch(launches, e.Correlation)
			hi := lo
			for hi < len(launches) && launches[hi] == e.Correlation {
				hi++
			}
			matched = hi - lo
		}
		if matched != 1 {
			return fmt.Errorf("trace: kernel %s correlation %d matched by %d launches, want 1", e.Name, e.Correlation, matched)
		}
	}
	return nil
}

// launch reports whether e is a runtime call that launched device work.
func (e *Event) launch() bool { return e.Cat == CatRuntime && e.Correlation != 0 }

// Builder emits well-formed traces, allocating correlation IDs.
//
// The finished trace is ordered as if each event had been appended when
// it was recorded, an operator when it ended (after everything it
// contains), and the whole then stably sorted by start time. That
// position before the sort is the event's emission rank: events that
// start together order by rank.
//
// An emitter gets that order without a sort when it places each event
// in start order: an operator when it starts (Begin, with its duration
// filled in by End), every other event when it is recorded. Trace then
// only merges two runs, each already in (Ts, rank) order: the host run,
// every operator and runtime call, and the device run, every kernel and
// copy. The simulator's executor emits this way. Events out of that
// order within a run, as in a hand-built trace or where an operator
// and the first event it contains start together, make Trace fall back
// to the sort.
//
// A nil *Builder is a valid builder that records nothing: every emitting
// method returns at once, NextCorrelation returns 0 and Trace returns
// nil. An executor takes a nil builder when only the timing of a run
// is wanted, so one code path serves both traced and trace-free runs.
type Builder struct {
	t        *Trace
	nextCorr uint64
	// keys holds one word per event of t: its emission rank in the low
	// 31 bits (so a trace holds fewer than 2³¹ events) and, in bit 31,
	// whether it is a device event. Trace lays the finished order out in
	// the high 32 bits.
	keys []uint64
	// rank is the next emission rank; open counts operators begun and
	// not yet ended.
	rank uint64
	open int
}

// OnFinish, when set, is called by each Builder.Trace with whether the
// trace was merged in order (true) or sorted. It exists for tests that
// pin which path an emitter's traces take; leave it nil otherwise.
var OnFinish func(merged bool)

// NewBuilder returns a builder over a fresh trace.
func NewBuilder() *Builder {
	return &Builder{t: New(), nextCorr: 1}
}

// Grow reserves room for n more events, so an emitter that knows its
// event count up front appends without regrowing the trace. A nil
// builder, or n ≤ 0, reserves nothing.
func (b *Builder) Grow(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.t.Events = slices.Grow(b.t.Events, n)
	b.keys = slices.Grow(b.keys, n)
}

// Meta records a provenance key.
func (b *Builder) Meta(key, value string) {
	if b == nil {
		return
	}
	b.t.Meta[key] = value
}

// deviceKey flags the key of a device event, a kernel or a copy;
// rankMask masks a key to its rank.
const (
	deviceKey = 1 << 31
	rankMask  = deviceKey - 1
)

// emit places e, ranked now; run is deviceKey for a device event and 0
// for a host event.
func (b *Builder) emit(e Event, run uint64) {
	b.t.Append(e)
	b.keys = append(b.keys, b.rank|run)
	b.rank++
}

// Begin places a host operator span on thread tid starting at ts and
// returns its handle for End, which ranks it and sets its duration.
// Every Begin must be ended before Trace. A nil builder returns -1.
func (b *Builder) Begin(name string, tid int, ts sim.Time) int {
	if b == nil {
		return -1
	}
	b.t.Append(Event{Name: name, Cat: CatOperator, Ts: ts, TID: tid})
	b.keys = append(b.keys, 0)
	b.open++
	return len(b.t.Events) - 1
}

// End ends the operator span op, begun by Begin, at end.
func (b *Builder) End(op int, end sim.Time) {
	if b == nil {
		return
	}
	b.t.Events[op].Dur = end - b.t.Events[op].Ts
	b.keys[op] = b.rank
	b.rank++
	b.open--
}

// Operator emits a whole host operator span on thread tid, placed and
// ranked at once. Hand-built traces use it; an emitter that records an
// operator when it ends gets its trace sorted.
func (b *Builder) Operator(name string, tid int, ts, dur sim.Time) {
	if b == nil {
		return
	}
	b.emit(Event{Name: name, Cat: CatOperator, Ts: ts, Dur: dur, TID: tid}, 0)
}

// NextCorrelation reserves a fresh correlation ID.
func (b *Builder) NextCorrelation() uint64 {
	if b == nil {
		return 0
	}
	c := b.nextCorr
	b.nextCorr++
	return c
}

// Launch emits a cudaLaunchKernel runtime span carrying corr.
func (b *Builder) Launch(name string, tid int, ts, dur sim.Time, corr uint64) {
	if b == nil {
		return
	}
	b.emit(Event{Name: name, Cat: CatRuntime, Ts: ts, Dur: dur, TID: tid, Correlation: corr}, 0)
}

// Runtime emits a non-launch runtime span (synchronize, memcpy call).
func (b *Builder) Runtime(name string, tid int, ts, dur sim.Time) {
	if b == nil {
		return
	}
	b.emit(Event{Name: name, Cat: CatRuntime, Ts: ts, Dur: dur, TID: tid}, 0)
}

// Kernel emits a device kernel execution on a stream, linked to corr.
func (b *Builder) Kernel(name string, stream int, ts, dur sim.Time, corr uint64, flops, bytes float64) {
	if b == nil {
		return
	}
	b.emit(Event{
		Name: name, Cat: CatKernel, Ts: ts, Dur: dur,
		TID: streamTID(stream), Stream: stream, Correlation: corr,
		FLOPs: flops, Bytes: bytes,
	}, deviceKey)
}

// Memcpy emits a copy event on a stream.
func (b *Builder) Memcpy(name string, stream int, ts, dur sim.Time, corr uint64, bytes float64) {
	if b == nil {
		return
	}
	b.emit(Event{
		Name: name, Cat: CatMemcpy, Ts: ts, Dur: dur,
		TID: streamTID(stream), Stream: stream, Correlation: corr, Bytes: bytes,
	}, deviceKey)
}

// Trace finalizes and returns the built trace in start order, after the
// last event; a later call returns the same trace. When the host and
// device runs are each in (Ts, rank) order, Trace merges them in one
// pass and moves each event at most once, allocating nothing.
// Otherwise it puts the events back in emission order and sorts them
// as Sort does, which gives the same order.
func (b *Builder) Trace() *Trace {
	if b == nil {
		return nil
	}
	if b.open != 0 {
		panic(fmt.Sprintf("trace: Builder.Trace with %d operators begun and not ended", b.open))
	}
	if len(b.keys) != len(b.t.Events) { // finalized already
		return b.t
	}
	merged := b.inOrder()
	if merged {
		b.merge()
	} else {
		b.restore()
		sortByTs(b.t.Events)
	}
	b.keys = nil
	if OnFinish != nil {
		OnFinish(merged)
	}
	return b.t
}

// before reports whether event i comes before event j in (Ts, rank)
// order.
func (b *Builder) before(i, j int) bool {
	ev := b.t.Events
	return ev[i].Ts < ev[j].Ts || ev[i].Ts == ev[j].Ts && b.keys[i]&rankMask < b.keys[j]&rankMask
}

// inOrder reports whether the host run and the device run are each in
// (Ts, rank) order.
func (b *Builder) inOrder() bool {
	last := [2]int{-1, -1} // the previous host and device event
	for i := range b.t.Events {
		r := b.keys[i] >> 31 & 1 // deviceKey's bit
		if last[r] >= 0 && !b.before(last[r], i) {
			return false
		}
		last[r] = i
	}
	return true
}

// next returns the index of the first event at or after i in the device
// run (device) or the host run, or the event count if none is left.
func (b *Builder) next(i int, device bool) int {
	for i < len(b.keys) && (b.keys[i]&deviceKey != 0) != device {
		i++
	}
	return i
}

// merge orders the events by (Ts, rank), the host and device runs each
// being in that order already. A cursor walks each run; the earlier of
// the two cursors' events comes next, and its index goes into the high
// half of that output position's key. The keys then hold the
// permutation, which permute applies.
func (b *Builder) merge() {
	n := len(b.t.Events)
	h, d := b.next(0, false), b.next(0, true)
	for j := range b.keys {
		var src int
		if d == n || h < n && b.before(h, d) {
			src, h = h, b.next(h+1, false)
		} else {
			src, d = d, b.next(d+1, true)
		}
		b.keys[j] |= uint64(src) << 32
	}
	for j := range b.keys {
		b.keys[j] >>= 32
	}
	permute(b.t.Events, b.keys)
}

// restore puts the events back in emission order: the event of rank r
// moves to r.
func (b *Builder) restore() {
	for i := range b.keys {
		r := b.keys[i] & rankMask
		b.keys[r] |= uint64(i) << 32
	}
	for j := range b.keys {
		b.keys[j] >>= 32
	}
	permute(b.t.Events, b.keys)
}

// streamTID maps a stream id into the TID space the Chrome viewer groups
// device lanes under, away from host thread ids.
func streamTID(stream int) int { return 1000 + stream }
