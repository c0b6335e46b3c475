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
	"fmt"
	"sort"

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
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].Ts < t.Events[j].Ts })
}

// Filter returns the events of one category, in trace order.
func (t *Trace) Filter(cat Category) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Cat == cat {
			out = append(out, e)
		}
	}
	return out
}

// Kernels returns kernel events sorted by start time.
func (t *Trace) Kernels() []Event {
	ks := t.Filter(CatKernel)
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].Ts < ks[j].Ts })
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
func (t *Trace) Validate() error {
	launches := make(map[uint64]int)
	for i, e := range t.Events {
		if e.Dur < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative duration %d", i, e.Name, e.Dur)
		}
		if e.Cat == CatRuntime && e.Correlation != 0 {
			launches[e.Correlation]++
		}
	}
	for i, e := range t.Events {
		if e.Cat != CatKernel {
			continue
		}
		if e.Correlation == 0 {
			return fmt.Errorf("trace: kernel event %d (%s) lacks a correlation id", i, e.Name)
		}
		if n := launches[e.Correlation]; n != 1 {
			return fmt.Errorf("trace: kernel %s correlation %d matched by %d launches, want 1", e.Name, e.Correlation, n)
		}
	}
	return nil
}

// Builder emits well-formed traces, allocating correlation IDs.
//
// A nil *Builder is a valid builder that records nothing: every emitting
// method returns at once, NextCorrelation returns 0 and Trace returns
// nil. Executors take a nil builder when only the timing of a run is
// wanted (the serving step-latency oracle), so one code path serves both
// traced and trace-free runs.
type Builder struct {
	t        *Trace
	nextCorr uint64
}

// NewBuilder returns a builder over a fresh trace.
func NewBuilder() *Builder {
	return &Builder{t: New(), nextCorr: 1}
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
