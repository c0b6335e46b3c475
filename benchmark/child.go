package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/skipsim/skip/internal/bench"
	"github.com/skipsim/skip/internal/spec"
)

// childEnv carries a job to a child process. A process that finds it
// set runs that one replay and exits instead of driving a run.
const childEnv = "SKIPBENCH_CHILD"

// job is one replay, run in a fresh child process.
type job struct {
	inputs
	// SetupOnly loads the workload and exits without replaying: a
	// cheap extra set-up sample.
	SetupOnly bool `json:"setup_only,omitempty"`
	// Trace runs the traced replay plus the layer probes and writes the
	// span file under Out.
	Trace bool   `json:"trace,omitempty"`
	Out   string `json:"out,omitempty"`
}

// result is what a child reports on its last line of output.
type result struct {
	// ReadyUnixNs is the wall clock when set-up ended and the replay
	// began; the parent process measures set-up from the moment it started the
	// process.
	ReadyUnixNs int64 `json:"ready_unix_ns"`
	// ReplayS is the timed call's wall time.
	ReplayS float64 `json:"replay_s"`
	// Mallocs / AllocBytes are the heap allocations of the timed call.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// MaxRSSBytes is the process's peak RSS when the replay returned,
	// before the checks allocate.
	MaxRSSBytes int64  `json:"max_rss_bytes"`
	Digest      string `json:"digest,omitempty"`
	Error       string `json:"error,omitempty"`
	// Layers and TraceFile come from traced replays only.
	Layers    map[string]float64 `json:"layers,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// runChild runs the job encoded in arg and prints its result.
func runChild(arg string) int {
	var j job
	var res result
	if err := json.Unmarshal([]byte(arg), &j); err != nil {
		res.Error = fmt.Sprintf("decoding job: %v", err)
	} else {
		res = replayOnce(j)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "skipbench child:", err)
		return 1
	}
	return 0
}

// replayOnce loads the workload, runs the timed replay, and checks it.
func replayOnce(j job) result {
	var res result
	w, err := load(j.inputs)
	res.ReadyUnixNs = time.Now().UnixNano()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if j.SetupOnly {
		return res
	}
	var tr *tracer
	if j.Trace {
		tr = newTracer()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if tr != nil {
		tr.begin("replay " + w.name)
	}
	out, err := w.replay(tr)
	replay := time.Since(start)
	if tr != nil {
		tr.end()
	}
	runtime.ReadMemStats(&after)
	res.ReplayS = replay.Seconds()
	res.Mallocs = after.Mallocs - before.Mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.MaxRSSBytes = maxRSSBytes()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Digest, err = out.verify()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if tr != nil {
		res.Layers, err = layerMetrics(j.inputs, w, out, tr, replay)
		if err == nil {
			res.TraceFile, err = tr.write(j.Out, w.name)
		}
		if err != nil {
			res.Error = err.Error()
		}
	}
	return res
}

// replay is the timed call: one Simulate of the fleet spec, or one pass
// over the paper artifacts. A non-nil tracer observes it.
func (w *workload) replay(tr *tracer) (*outcome, error) {
	if w.paper() {
		results := make([]*bench.Result, 0, len(w.artifacts))
		for _, id := range w.artifacts {
			e, err := bench.ByID(id)
			if err != nil {
				return nil, err
			}
			run := func() error {
				r, err := e.Run()
				if err != nil {
					return fmt.Errorf("%s: %w", id, err)
				}
				results = append(results, r)
				return nil
			}
			if tr != nil {
				err = tr.span("bench."+id, "bench", run)
			} else {
				err = run()
			}
			if err != nil {
				return nil, err
			}
		}
		return &outcome{paper: results}, nil
	}
	var opts []spec.Option
	if tr != nil {
		opts = append(opts, spec.WithObserver(tr.observe))
	}
	rep, err := spec.Simulate(w.spec, opts...)
	if err != nil {
		return nil, err
	}
	return &outcome{report: rep}, nil
}
