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
	"math/bits"
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
	// Events holds all events. Build and Sort keep them ordered by
	// (Ts, insertion).
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
// emission order.
//
// A sorted trace costs one comparison pass. Otherwise Sort never moves
// events while it compares them: it sorts one pointer-free uint64 key per
// event, (Ts − min Ts) shifted above the event's index, so equal starts
// order by index, and then applies the sorted permutation in place along
// its cycles, moving each event once. That is O(n log n) on 8-byte keys
// plus n event moves, and one n-key allocation. A trace whose Ts range
// and index do not fit one key together (a span near 2⁶⁴ ns) sorts its
// indices stably by Ts instead.
func (t *Trace) Sort() { sortByTs(t.Events) }

// byTs orders events by start time.
func byTs(a, b Event) int { return cmp.Compare(a.Ts, b.Ts) }

// sortByTs sorts events stably by start time; see Trace.Sort.
func sortByTs(ev []Event) {
	if slices.IsSortedFunc(ev, byTs) {
		return
	}
	lo, hi := ev[0].Ts, ev[0].Ts
	for i := range ev {
		lo, hi = min(lo, ev[i].Ts), max(hi, ev[i].Ts)
	}
	// perm[j] ends up holding the index of the event that belongs at j.
	perm := make([]uint64, len(ev))
	shift := bits.Len(uint(len(ev) - 1))
	if span := uint64(hi) - uint64(lo); bits.Len64(span)+shift <= 64 {
		for i := range ev {
			perm[i] = (uint64(ev[i].Ts)-uint64(lo))<<shift | uint64(i)
		}
		slices.Sort(perm)
		mask := uint64(1)<<shift - 1
		for j := range perm {
			perm[j] &= mask
		}
	} else {
		for i := range perm {
			perm[i] = uint64(i)
		}
		slices.SortStableFunc(perm, func(a, b uint64) int { return cmp.Compare(ev[a].Ts, ev[b].Ts) })
	}
	// Follow each cycle of the permutation from its first position,
	// pulling every event into place and marking the position done.
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
// A nil *Builder is a valid builder that records nothing: every emitting
// method returns at once, NextCorrelation returns 0 and Trace returns
// nil. An executor takes a nil builder when only the timing of a run
// is wanted, so one code path serves both traced and trace-free runs.
type Builder struct {
	t        *Trace
	nextCorr uint64
}

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
}

// Meta records a provenance key.
func (b *Builder) Meta(key, value string) {
	if b == nil {
		return
	}
	b.t.Meta[key] = value
}

// Operator emits a host operator span on thread tid.
func (b *Builder) Operator(name string, tid int, ts, dur sim.Time) {
	if b == nil {
		return
	}
	b.t.Append(Event{Name: name, Cat: CatOperator, Ts: ts, Dur: dur, TID: tid})
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
	b.t.Append(Event{Name: name, Cat: CatRuntime, Ts: ts, Dur: dur, TID: tid, Correlation: corr})
}

// Runtime emits a non-launch runtime span (synchronize, memcpy call).
func (b *Builder) Runtime(name string, tid int, ts, dur sim.Time) {
	if b == nil {
		return
	}
	b.t.Append(Event{Name: name, Cat: CatRuntime, Ts: ts, Dur: dur, TID: tid})
}

// Kernel emits a device kernel execution on a stream, linked to corr.
func (b *Builder) Kernel(name string, stream int, ts, dur sim.Time, corr uint64, flops, bytes float64) {
	if b == nil {
		return
	}
	b.t.Append(Event{
		Name: name, Cat: CatKernel, Ts: ts, Dur: dur,
		TID: streamTID(stream), Stream: stream, Correlation: corr,
		FLOPs: flops, Bytes: bytes,
	})
}

// Memcpy emits a copy event on a stream.
func (b *Builder) Memcpy(name string, stream int, ts, dur sim.Time, corr uint64, bytes float64) {
	if b == nil {
		return
	}
	b.t.Append(Event{
		Name: name, Cat: CatMemcpy, Ts: ts, Dur: dur,
		TID: streamTID(stream), Stream: stream, Correlation: corr, Bytes: bytes,
	})
}

// Trace finalizes and returns the built trace, sorted.
func (b *Builder) Trace() *Trace {
	if b == nil {
		return nil
	}
	b.t.Sort()
	return b.t
}

// streamTID maps a stream id into the TID space the Chrome viewer groups
// device lanes under, away from host thread ids.
func streamTID(stream int) int { return 1000 + stream }
