package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/skipsim/skip/internal/sim"
)

// chromeTrace is the on-disk representation: the Chrome trace-event JSON
// envelope ("traceEvents" + metadata), timestamps in microseconds as the
// format specifies. PyTorch Profiler exports the same envelope, so traces
// written here load in chrome://tracing and Perfetto.
type chromeTrace struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	Meta        map[string]string `json:"skipMeta,omitempty"`
	DisplayUnit string            `json:"displayTimeUnit,omitempty"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON serializes the trace in Chrome trace-event format. Named
// threads (Trace.Threads) lead the stream as "thread_name" metadata
// events in TID order, which is how Perfetto labels its tracks.
func (t *Trace) WriteJSON(w io.Writer) error {
	ct := chromeTrace{Meta: t.Meta, DisplayUnit: "ns"}
	ct.TraceEvents = make([]chromeEvent, 0, len(t.Events)+len(t.Threads))
	tids := make([]int, 0, len(t.Threads))
	for tid := range t.Threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": t.Threads[tid]},
		})
	}
	for _, e := range t.Events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  string(e.Cat),
			Ph:   "X",
			Ts:   e.Ts.Microseconds(),
			Dur:  e.Dur.Microseconds(),
			PID:  1,
			TID:  e.TID,
		}
		args := make(map[string]any)
		if e.Correlation != 0 {
			args["correlation"] = e.Correlation
		}
		if e.Cat == CatKernel || e.Cat == CatMemcpy {
			args["stream"] = e.Stream
		}
		if e.Cat.RequestSpan() {
			args["req"] = e.Req
		}
		if e.FLOPs > 0 {
			args["flops"] = e.FLOPs
		}
		if e.Bytes > 0 {
			args["bytes"] = e.Bytes
		}
		if len(args) > 0 {
			ce.Args = args
		}
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// ReadJSON parses a Chrome trace-event JSON document produced by
// WriteJSON (or a compatible exporter).
func ReadJSON(r io.Reader) (*Trace, error) {
	var ct chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ct); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	t := New()
	if ct.Meta != nil {
		t.Meta = ct.Meta
	}
	for i, ce := range ct.TraceEvents {
		if ce.Ph == "M" && ce.Name == "thread_name" {
			if name, ok := ce.Args["name"].(string); ok {
				if t.Threads == nil {
					t.Threads = make(map[int]string)
				}
				t.Threads[ce.TID] = name
			}
			continue
		}
		if ce.Ph != "X" && ce.Ph != "" {
			continue // only complete events carry timing we use
		}
		e := Event{
			Name: ce.Name,
			Cat:  Category(ce.Cat),
			Ts:   sim.Time(float64(ce.Ts*1e3) + 0.5),
			Dur:  sim.Time(float64(ce.Dur*1e3) + 0.5),
			TID:  ce.TID,
		}
		if ce.Args != nil {
			if v, ok := numArg(ce.Args, "correlation"); ok {
				e.Correlation = uint64(v)
			}
			if v, ok := numArg(ce.Args, "stream"); ok {
				e.Stream = int(v)
			}
			if v, ok := numArg(ce.Args, "flops"); ok {
				e.FLOPs = v
			}
			if v, ok := numArg(ce.Args, "bytes"); ok {
				e.Bytes = v
			}
			if v, ok := numArg(ce.Args, "req"); ok {
				e.Req = int(v)
			}
		}
		if e.Dur < 0 {
			return nil, fmt.Errorf("trace: event %d (%s) has negative duration", i, ce.Name)
		}
		t.Append(e)
	}
	t.Sort()
	return t, nil
}

func numArg(args map[string]any, key string) (float64, bool) {
	v, ok := args[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return n, true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}

// SaveFile writes the trace to path as Chrome trace JSON.
func (t *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := t.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a Chrome trace JSON file.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}
