// Command skipbench is the repository benchmark. It replays fixed
// workloads through the simulator's public entry points — spec.Simulate
// for four fleet specs, the bench registry for the paper's twelve
// artifacts — one replay per fresh child process, because every
// `skip sim` invocation pays process start and oracle warm-up again.
// Every replay's results are checked (ledgers, a digest of the report,
// the paper's shape checks) and a replay that fails a check counts as
// failed.
//
//	go run . -workload chat8 -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, with -trace 1 the
// per-layer metrics of one traced replay plus the layer probes (see
// README.md). The last line of output is one JSON object.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// replaysPerStream is the number of replays of each request stream;
	// the twins must agree on the digest.
	replaysPerStream = 2
	// setupPerReplay is the number of set-up-only children started
	// before each replay.
	setupPerReplay = 4
	// childTimeout bounds one child process; the longest replay takes a
	// few seconds.
	childTimeout = 120 * time.Second
)

// metric is one reported metric: its name, unit and value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the machine-readable last line of a workload's output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if arg, ok := os.LookupEnv(childEnv); ok {
		os.Exit(runChild(arg))
	}
	os.Exit(drive(os.Args[1:], os.Stdout, os.Stderr))
}

// drive parses the command line, measures each selected workload, and
// prints its metrics. It returns the process exit code: 0 only when
// every replay passed its checks.
func drive(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skipbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of chat8, chat80, agentic_cache, disagg_chaos, paper")
	seed := fs.Int64("seed", 0, "seed of request streams 1 and up, substituted into workload.seed and fleet.faults.seed (default: each spec's own); stream 0 always keeps the spec's seeds")
	seconds := fs.Float64("seconds", 20, "start replays of a workload until this many seconds have passed")
	traceLevel := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay and the layer probes")
	quick := fs.Bool("quick", false, "1/20 of each fleet workload's requests and stream 0 only, for smoke runs")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory the traced replay writes its Chrome-trace span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seeded := false
	fs.Visit(func(f *flag.Flag) { seeded = seeded || f.Name == "seed" })
	if fs.NArg() > 0 || *seconds <= 0 || (*traceLevel != 0 && *traceLevel != 1) {
		fmt.Fprintln(stderr, "skipbench: want -seconds > 0, -trace 0 or 1, and no positional arguments")
		return 2
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}
	// The calibration must not depend on the code under test, which is
	// linked into this process and could retune the collector.
	debug.SetGCPercent(100)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "skipbench:", err)
		return 1
	}
	for _, line := range provenance() {
		fmt.Fprintln(stdout, "#", line)
	}
	code := 0
	for _, n := range names {
		in := inputs{Workload: n, Seed: *seed, Seeded: seeded, Quick: *quick}
		if _, err := load(in); err != nil {
			fmt.Fprintln(stderr, "skipbench:", err)
			return 2
		}
		m := &measurement{exe: exe, in: in, stderr: stderr}
		sum, err := m.run(time.Duration(*seconds*float64(time.Second)), *traceLevel == 1, *out)
		if err != nil {
			fmt.Fprintln(stderr, "skipbench:", err)
			return 1
		}
		if err := printSummary(stdout, n, sum, m); err != nil {
			fmt.Fprintln(stderr, "skipbench:", err)
			return 1
		}
		if !sum.Correct {
			code = 1
		}
	}
	return code
}

// measurement runs one workload's replays and keeps their outcomes.
type measurement struct {
	exe    string
	in     inputs
	stderr io.Writer

	// want maps each stream to the digest its replays must reproduce:
	// the recorded one for stream 0 at full scale, else the stream's
	// first replay's.
	want    map[int]string
	replays []replayStat
	traced  *replayStat
	setups  []float64
}

type replayStat struct {
	res result
	// speed is the host speed over the replay: the reference
	// calibration time over the mean of the calibrations just before
	// and just after it.
	speed float64
	// failure says why the replay failed ("" when it passed).
	failure string
}

// replayRef is the replay's wall time in reference seconds.
func (r *replayStat) replayRef() float64 { return r.res.ReplayS * r.speed }

// run replays one request stream after another, each
// replaysPerStream times, until d has passed (under -quick, stream 0
// only), then, when traced, one traced replay of stream 0. Every run
// starts with stream 0, whose digest is recorded, so every run checks
// the simulator's results against them. Spreading a run over several
// streams makes its medians depend less on one stream's rare requests.
// Each replay is preceded by setupPerReplay set-up-only children, so
// the set-up median rests on many samples. Times are kept in reference
// seconds (see calibrate.go).
func (m *measurement) run(d time.Duration, traced bool, out string) (*summary, error) {
	m.want = map[int]string{}
	if !m.in.Quick {
		m.want[0] = recordedDigests[m.in.Workload]
	}
	calibrate() // the first calibration in a process also pays for growing the heap
	start := time.Now()
	for stream := 0; ; stream++ {
		in := m.in
		in.Stream = stream
		for i := 0; i < replaysPerStream; i++ {
			speed := hostSpeed()
			for k := 0; k < setupPerReplay; k++ {
				res, setup, err := m.child(job{inputs: in, SetupOnly: true})
				if err == nil && res.Error == "" {
					m.setups = append(m.setups, setup*speed)
				}
			}
			m.replays = append(m.replays, m.replay(job{inputs: in}, speed))
		}
		if m.in.Quick || time.Since(start) >= d {
			break
		}
	}
	if traced {
		r := m.replay(job{inputs: m.in, Trace: true, Out: out}, hostSpeed())
		m.traced = &r
	}
	return m.summarize()
}

// child runs one job in a fresh process and returns its result and
// set-up time: from starting the process to the child's replay start.
func (m *measurement) child(j job) (result, float64, error) {
	var res result
	arg, err := json.Marshal(j)
	if err != nil {
		return res, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, m.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = m.stderr
	cmd.SysProcAttr = childAttr()
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return res, 0, fmt.Errorf("child process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, 0, fmt.Errorf("child output: %w", err)
	}
	return res, float64(res.ReadyUnixNs-start.UnixNano()) / 1e9, nil
}

// replay runs one replay child and judges its result. before is the
// host speed measured just before it.
func (m *measurement) replay(j job, before float64) replayStat {
	var r replayStat
	var setup float64
	var err error
	r.res, setup, err = m.child(j)
	r.speed = 2 / (1/before + 1/hostSpeed())
	want, ok := m.want[j.Stream]
	switch {
	case err != nil:
		r.failure = err.Error()
	case r.res.Error != "":
		r.failure = r.res.Error
	case !ok:
		m.want[j.Stream] = r.res.Digest
	case r.res.Digest != want:
		r.failure = fmt.Sprintf("digest %s, want %s", r.res.Digest, want)
	}
	status := "ok"
	if r.failure != "" {
		status = "FAILED: " + r.failure
	}
	fmt.Fprintf(m.stderr, "%s replay %d (stream %d, traced %v): replay %.4f s, set-up %.2f ms, host speed %.3f: %s\n",
		m.in.Workload, len(m.replays)+1, j.Stream, j.Trace, r.res.ReplayS, 1e3*setup, r.speed, status)
	if r.failure == "" && !j.Trace {
		m.setups = append(m.setups, setup*before)
	}
	return r
}

// summarize turns the replays into the workload's metrics: medians over
// the untraced replays that passed, or the traced replay's layer
// metrics.
func (m *measurement) summarize() (*summary, error) {
	sum := &summary{Attempted: len(m.replays), Metrics: map[string]metric{}}
	var replay, allocs, allocMB, rss []float64
	for i := range m.replays {
		r := &m.replays[i]
		if r.failure != "" {
			sum.Failed++
			continue
		}
		replay = append(replay, r.replayRef())
		allocs = append(allocs, float64(r.res.Mallocs)/1e6)
		allocMB = append(allocMB, float64(r.res.AllocBytes)/1e6)
		rss = append(rss, float64(r.res.MaxRSSBytes)/1e6)
	}
	if len(replay) == 0 {
		return nil, errors.New("every replay failed")
	}
	if m.traced == nil {
		values := map[string][]float64{
			"setup_s": m.setups, "replay_s": replay, "allocs_m": allocs, "alloc_mb": allocMB, "max_rss_mb": rss,
		}
		for _, d := range endToEnd {
			xs, ok := values[d.Name]
			if !ok {
				return nil, fmt.Errorf("no samples of %s", d.Name)
			}
			sum.Metrics[d.Name] = metric{median(xs), d.Unit}
		}
	} else {
		sum.Attempted++
		if m.traced.failure != "" {
			sum.Failed++
		}
		layers := m.traced.res.Layers
		if layers == nil {
			return nil, fmt.Errorf("traced replay reported no layer metrics: %s", m.traced.failure)
		}
		layers["trace.overhead_pct"] = 100 * (m.traced.replayRef()/median(replay) - 1)
		for _, d := range perLayer {
			v, ok := layers[d.Name]
			if !ok {
				return nil, fmt.Errorf("traced replay did not report %s", d.Name)
			}
			sum.Metrics[d.Name] = metric{v, d.Unit}
		}
	}
	sum.Correct = sum.Failed == 0
	return sum, nil
}

// printSummary writes the workload's metrics as aligned text and then
// as the one-line JSON object.
func printSummary(w io.Writer, name string, sum *summary, m *measurement) error {
	fmt.Fprintf(w, "%s: %d replays of %d streams, %d failed, stream 0 digest %s\n",
		name, sum.Attempted, len(m.want), sum.Failed, m.want[0])
	var raw, speeds []float64
	for _, r := range m.replays {
		raw = append(raw, r.res.ReplayS)
		speeds = append(speeds, r.speed)
	}
	fmt.Fprintf(w, "%s: median host speed %.3f of the reference host; measured replay median %.4f s\n",
		name, median(speeds), median(raw))
	if m.traced != nil && m.traced.res.TraceFile != "" {
		fmt.Fprintf(w, "%s: spans written to %s\n", name, m.traced.res.TraceFile)
	}
	keys := make([]string, 0, len(sum.Metrics))
	for k := range sum.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, sum.Metrics[k].Value, sum.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "  %-28s %14d count\n", "replays", sum.Attempted)
	fmt.Fprintf(w, "  %-28s %14d count\n", "replays_failed", sum.Failed)
	data, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
