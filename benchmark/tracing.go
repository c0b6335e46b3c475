package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// gapClass is the simulator layer a host-time gap is charged to: the
// layer that emitted the event closing the gap.
type gapClass int

const (
	gapServe gapClass = iota
	gapRoute
	gapLifecycle
	gapBlock
	gapTransfer
	gapSample
	gapSpec
	numGapClasses
)

// gapSpan names each class's spans; gapMetric is the per-layer metric
// reporting its share of the traced replay ("" for the spec layer,
// whose share is set-up and stats assembly rather than simulation).
var (
	gapSpan   = [numGapClasses]string{"serve", "cluster", "cluster", "kvcache", "disagg", "metrics", "spec"}
	gapMetric = [numGapClasses]string{
		"serve.step_pct", "cluster.route_pct", "cluster.lifecycle_pct",
		"kvcache.block_pct", "disagg.transfer_pct", "metrics.sample_pct", "",
	}
)

func classOf(t serve.EventType) gapClass {
	switch t {
	case serve.EventRejected, serve.EventUnroutable, serve.EventRouted, serve.EventRequeued:
		return gapRoute
	case serve.EventInstanceJoin, serve.EventDrainStart, serve.EventInstanceGone, serve.EventFaultInjected:
		return gapLifecycle
	case serve.EventBlockHit, serve.EventBlockEvict, serve.EventBlockRestore:
		return gapBlock
	case serve.EventKVTransferStart, serve.EventKVTransferDone:
		return gapTransfer
	case serve.EventStateSample:
		return gapSample
	case serve.EventProgress:
		return gapSpec
	default: // arrival, admitted, preempted, abandoned, first-token, completed
		return gapServe
	}
}

// spanCategory files a gap under the request phase its closing event
// ends, so request gaps use the trace package's request-span categories
// and carry args.req; instance-level events get their own category.
func spanCategory(t serve.EventType) trace.Category {
	switch t {
	case serve.EventArrival, serve.EventRejected, serve.EventUnroutable, serve.EventRouted,
		serve.EventAdmitted, serve.EventAbandoned:
		return trace.CatQueue
	case serve.EventBlockHit, serve.EventBlockEvict, serve.EventBlockRestore, serve.EventFirstToken:
		return trace.CatPrefill
	case serve.EventPreempted, serve.EventRequeued:
		return trace.CatRequeue
	case serve.EventKVTransferStart:
		return trace.CatStall
	case serve.EventKVTransferDone:
		return trace.CatTransfer
	case serve.EventCompleted:
		return trace.CatDecode
	default:
		return trace.Category(t.String())
	}
}

// Every span lives on one track, so the viewer nests spans by time:
// gaps under the replay span, probes under the probe span.
const spanTID = 1

// tracer is the traced replay's observer. It stamps wall time on every
// event, turns the gap since the previous event into a span charged to
// the emitting layer, and keeps spans and events in memory until the
// replay ends.
type tracer struct {
	start  time.Time
	last   time.Duration
	spans  []trace.Event
	gapNs  [numGapClasses]int64
	counts map[serve.EventType]int
	events []serve.Event
	// arrived holds each request's first arrival until its first
	// admission, which turns it into a simulated queue wait.
	arrived  map[int]sim.Time
	admitted map[int]bool
	waits    []sim.Time
}

func newTracer() *tracer {
	return &tracer{
		counts:   make(map[serve.EventType]int),
		arrived:  make(map[int]sim.Time),
		admitted: make(map[int]bool),
	}
}

// begin opens the replay span; the wall clock starts here.
func (t *tracer) begin(name string) {
	t.start = time.Now()
	t.spans = append(t.spans, trace.Event{Name: name, Cat: "replay", TID: spanTID})
}

func (t *tracer) observe(e serve.Event) {
	now := time.Since(t.start)
	c := classOf(e.Type)
	name := gapSpan[c]
	if len(t.events) == 0 {
		// Validation, request generation and fleet construction run
		// before the first event.
		c, name = gapSpec, "spec.setup"
	}
	t.gapNs[c] += int64(now - t.last)
	t.spans = append(t.spans, trace.Event{
		Name: name, Cat: spanCategory(e.Type), TID: spanTID,
		Ts: sim.Time(t.last), Dur: sim.Time(now - t.last), Req: e.RequestID,
	})
	t.last = now
	t.counts[e.Type]++
	t.events = append(t.events, e)
	switch e.Type {
	case serve.EventArrival:
		if _, ok := t.arrived[e.RequestID]; !ok && !t.admitted[e.RequestID] {
			t.arrived[e.RequestID] = e.Time
		}
	case serve.EventAdmitted:
		if at, ok := t.arrived[e.RequestID]; ok {
			t.waits = append(t.waits, e.Time-at)
			delete(t.arrived, e.RequestID)
			t.admitted[e.RequestID] = true
		}
	}
}

// end closes the replay span, charging the tail after the last event
// (stats assembly) to the spec layer.
func (t *tracer) end() {
	now := time.Since(t.start)
	if len(t.events) > 0 {
		t.gapNs[gapSpec] += int64(now - t.last)
		t.spans = append(t.spans, trace.Event{
			Name: "spec.assemble", Cat: "assemble", TID: spanTID,
			Ts: sim.Time(t.last), Dur: sim.Time(now - t.last),
		})
	}
	t.spans[0].Dur = sim.Time(now)
}

// span runs fn as a child span of whatever span encloses it in time.
// The span is appended before fn runs so a parent precedes its
// children in the written file.
func (t *tracer) span(name string, cat trace.Category, fn func() error) error {
	i := len(t.spans)
	start := time.Since(t.start)
	t.spans = append(t.spans, trace.Event{Name: name, Cat: cat, TID: spanTID, Ts: sim.Time(start)})
	err := fn()
	t.spans[i].Dur = sim.Time(time.Since(t.start) - start)
	return err
}

// shares reports each layer's share of the replay's wall time, in
// percent.
func (t *tracer) shares(replay time.Duration, into map[string]float64) {
	for c := gapClass(0); c < numGapClasses; c++ {
		if gapMetric[c] != "" {
			into[gapMetric[c]] = 100 * float64(t.gapNs[c]) / float64(replay)
		}
	}
}

// write saves the spans as one Chrome-trace JSON file, with the event
// counts per type as metadata.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	tr := trace.New()
	tr.Meta["workload"] = workload
	for typ, n := range t.counts {
		tr.Meta["events."+typ.String()] = strconv.Itoa(n)
	}
	tr.Threads = map[int]string{spanTID: "skipbench " + workload}
	tr.Events = t.spans
	path := filepath.Join(dir, workload+".trace.json")
	return path, tr.SaveFile(path)
}
