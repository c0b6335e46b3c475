package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	skip "github.com/skipsim/skip"
	"github.com/skipsim/skip/internal/cluster"
)

// cmdSim runs a declarative experiment spec: `skip sim -spec
// experiment.json`. It is the only command that runs serving, fleet and
// sweep experiments; run and generate build the same Spec from flags.
// A spec file is the complete, shareable description of an experiment.
func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	specPath := fs.String("spec", "", "experiment spec file (JSON; see `skip sim -h` and README)")
	events := fs.Bool("events", false, "stream simulation events (arrival/routed/admitted/…) to stdout")
	jsonOut := fs.Bool("json", false, "print the unified report as JSON (stable field order; times in virtual ns) instead of text")
	out := fs.String("o", "", "run specs: write the trace to this Chrome-trace JSON file")
	traceOut := fs.String("trace-out", "", "serve/fleet specs: write the per-request span timeline to this Chrome-trace JSON file (Perfetto-loadable)")
	eventsOut := fs.String("events-out", "", "serve/fleet specs: write the event stream to this file as JSON lines (one event per line, Seq-numbered)")
	cfK := fs.Int("counterfactual-k", 0, "fleet specs: record every routing decision with up to K scored alternatives plus counterfactual policy replays (overrides observability.counterfactual_k)")
	metricsCSV := fs.String("metrics-csv", "", "write the report.metrics series to this CSV file (one row per sweep point; needs a report.metrics section)")
	timelineCSV := fs.String("timeline-csv", "", "write the windowed Report.Timeline series to this CSV file (one row per window; needs an observability.timeline section)")
	profile := fs.Bool("profile", false, "measure the simulator itself (wall time, events/sec, allocs/event) and print the Report.Profile block")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (taken after the simulation) to this file")
	progress := fs.Bool("progress", false, "print a heartbeat to stderr at every progress tick: wall time, simulated time, live events/sec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("sim: -spec is required")
	}
	sp, err := skip.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	if *cfK != 0 {
		if sp.Observability == nil {
			sp.Observability = &skip.ObservabilitySpec{}
		}
		sp.Observability.CounterfactualK = *cfK
	}

	// Run documents emit no lifecycle events — swept or not (run is
	// mutually exclusive with serve/fleet, so sp.Run identifies a
	// run-kind sweep too).
	isRun := sp.Kind() == skip.KindRun || sp.Run != nil
	// Only an unswept run report carries a profiler trace; reject -o
	// before spending a simulation on it.
	if *out != "" && sp.Kind() != skip.KindRun {
		return fmt.Errorf("sim: -o needs a run spec (serve, fleet and sweep reports carry no trace)")
	}
	// Every event consumer shares one observer; with -json, stdout must
	// stay one parseable document, so status and streamed events move to
	// stderr.
	statusOut := os.Stdout
	if *jsonOut {
		statusOut = os.Stderr
	}
	var observers []skip.Observer
	if *events {
		if isRun {
			return fmt.Errorf("sim: -events needs a serve or fleet spec (run specs emit no lifecycle events)")
		}
		observers = append(observers, func(e skip.Event) {
			fmt.Fprintln(statusOut, "  event:", e)
		})
	}
	var encErr error
	if *eventsOut != "" {
		if isRun {
			return fmt.Errorf("sim: -events-out needs a serve or fleet spec (run specs emit no lifecycle events)")
		}
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		observers = append(observers, func(e skip.Event) {
			if err := enc.Encode(e); err != nil && encErr == nil {
				encErr = fmt.Errorf("sim: writing %s: %w", *eventsOut, err)
			}
		})
	}
	var tb *skip.TimelineBuilder
	if *traceOut != "" {
		switch sp.Kind() {
		case skip.KindServe, skip.KindCluster, skip.KindDisagg:
		default:
			return fmt.Errorf("sim: -trace-out needs a serve or fleet spec (request ids repeat across sweep points; use -o for run traces)")
		}
		tb = skip.NewTimelineBuilder()
		observers = append(observers, tb.Observe)
	}
	if *progress {
		if isRun {
			return fmt.Errorf("sim: -progress needs a serve or fleet spec (run specs emit no lifecycle events)")
		}
		start := time.Now()
		var seen int64
		observers = append(observers, func(e skip.Event) {
			seen++
			if e.Type != skip.EventProgress {
				return
			}
			wall := time.Since(start)
			eps := float64(seen) / wall.Seconds()
			fmt.Fprintf(os.Stderr, "progress: %d/%d completed  wall %v  simulated %v  %.0f events/s\n",
				e.Completed, e.Total, wall.Round(time.Millisecond), e.Time, eps)
		})
	}
	var opts []skip.SimOption
	if len(observers) > 0 {
		opts = append(opts, skip.WithObserver(func(e skip.Event) {
			for _, fn := range observers {
				fn(e)
			}
		}))
	}
	if *profile {
		opts = append(opts, skip.WithProfile())
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rep, err := skip.Simulate(sp, opts...)
	if err != nil {
		return err
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		fmt.Fprintf(statusOut, "heap profile written to %s\n", *memprofile)
	}
	if encErr != nil {
		return encErr
	}
	if *jsonOut {
		data, err := skip.ReportJSON(rep)
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
	} else {
		printReport(sp, rep)
	}

	if tb != nil {
		if err := tb.Reconcile(); err != nil {
			return err
		}
		if err := tb.Trace().SaveFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(statusOut, "request timeline written to %s (%d requests)\n",
			*traceOut, len(tb.Timelines()))
	}
	if *eventsOut != "" {
		fmt.Fprintf(statusOut, "event stream written to %s\n", *eventsOut)
	}
	if *metricsCSV != "" {
		if err := writeMetricsCSV(*metricsCSV, rep); err != nil {
			return err
		}
		fmt.Fprintf(statusOut, "metrics written to %s\n", *metricsCSV)
	}
	if *timelineCSV != "" {
		if err := writeTimelineCSV(*timelineCSV, rep); err != nil {
			return err
		}
		fmt.Fprintf(statusOut, "timeline written to %s (%d windows)\n", *timelineCSV, rep.Timeline.Windows)
	}
	if *profile && !*jsonOut {
		printProfile(rep.Profile)
	}
	if *out != "" {
		if err := traceOf(rep).SaveFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(statusOut, "trace written to %s\n", *out)
	}
	return nil
}

// traceOf returns a run report's profiler trace.
func traceOf(rep *skip.Report) *skip.Trace {
	if rep.Generate != nil {
		return rep.Generate.Trace
	}
	return rep.Run.Trace
}

// printReport renders a unified Report; the sim, run and generate
// commands all funnel through it.
func printReport(sp *skip.Spec, rep *skip.Report) {
	switch rep.Kind {
	case skip.KindRun:
		if rep.Generate != nil {
			printGenerate(sp, rep.Generate)
		} else {
			printRun(rep.Run)
		}
	case skip.KindServe:
		printServeReport(sp, rep)
	case skip.KindCluster:
		printClusterReport(sp, rep)
	case skip.KindDisagg:
		printDisaggReport(sp, rep)
	case skip.KindSweep:
		printSweepReport(sp, rep)
	}
	printMetrics(rep.Metrics)
}

// writeMetricsCSV exports the derived metric series as CSV: one column
// per metric, one row per sweep point (a single row for plain runs).
// Sweep reports lead with a column for the swept field's value, so the
// file is directly plottable against the sweep axis.
func writeMetricsCSV(path string, rep *skip.Report) error {
	if len(rep.Metrics) == 0 {
		return fmt.Errorf("sim: -metrics-csv needs a report.metrics section in the spec")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	var header []string
	if rep.SweepField != "" {
		header = append(header, rep.SweepField)
	}
	for _, m := range rep.Metrics {
		header = append(header, m.Name)
	}
	if err := w.Write(header); err != nil {
		return err
	}
	// All series should be one value per sweep point, but a metric over
	// a section some points lack can come up short — write the common
	// prefix rather than panicking past a short series.
	rows := len(rep.Metrics[0].Values)
	for _, m := range rep.Metrics[1:] {
		if len(m.Values) < rows {
			rows = len(m.Values)
		}
	}
	for i := 0; i < rows; i++ {
		var row []string
		if rep.SweepField != "" && i < len(rep.Sweep) {
			row = append(row, fmt.Sprintf("%v", rep.Sweep[i].Value))
		}
		for _, m := range rep.Metrics {
			row = append(row, strconv.FormatFloat(m.Values[i], 'g', -1, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// writeTimelineCSV exports the windowed timeline as CSV: one row per
// window, leading with the window index and its start time, then every
// fleet series, then every per-instance series as "<instance>.<name>"
// columns.
func writeTimelineCSV(path string, rep *skip.Report) error {
	tl := rep.Timeline
	if tl == nil {
		return fmt.Errorf("sim: -timeline-csv needs an observability.timeline section in the spec")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"window", "t_ms"}
	cols := make([][]float64, 0, len(tl.Fleet))
	for _, s := range tl.Fleet {
		header = append(header, s.Name)
		cols = append(cols, s.Values)
	}
	for _, in := range tl.Instances {
		for _, s := range in.Series {
			header = append(header, in.Instance+"."+s.Name)
			cols = append(cols, s.Values)
		}
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for i := 0; i < tl.Windows; i++ {
		row := make([]string, 0, len(cols)+2)
		row = append(row, strconv.Itoa(i),
			strconv.FormatFloat(float64(i)*tl.IntervalMs, 'g', -1, 64))
		for _, c := range cols {
			v := 0.0
			if i < len(c) {
				v = c[i]
			}
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// printProfile renders the simulator's self-measurement block.
func printProfile(p *skip.SimProfile) {
	if p == nil {
		return
	}
	fmt.Println()
	fmt.Println("  simulator profile")
	wall := time.Duration(p.WallNs)
	fmt.Printf("    wall time      %v  (simulated %v, %.0fx real time)\n",
		wall.Round(time.Microsecond), time.Duration(p.SimulatedNs), ratio(float64(p.SimulatedNs), float64(p.WallNs)))
	fmt.Printf("    events         %d  (%.0f events/s)\n", p.Events, p.EventsPerSec)
	fmt.Printf("    allocations    %d (%.1f MB total, %.1f/event)  heap now %.1f MB\n",
		p.Mallocs, float64(p.AllocBytes)/1e6, p.AllocsPerEvent, float64(p.HeapAllocBytes)/1e6)
	fmt.Printf("    oracle misses  %d engine runs\n", p.OracleMisses)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// printMetrics renders the derived series a report.metrics section
// selected — one row per metric, all sweep points on the row.
func printMetrics(metrics []skip.Metric) {
	if len(metrics) == 0 {
		return
	}
	fmt.Println()
	fmt.Println("  derived metrics")
	for _, m := range metrics {
		vals := make([]string, len(m.Values))
		for i, v := range m.Values {
			vals[i] = fmt.Sprintf("%.6g", v)
		}
		fmt.Printf("    %-28s %s\n", m.Name, strings.Join(vals, " "))
	}
}

// printSweepReport renders a sweep series as one table, one row per
// swept value, with columns chosen by the points' layer. Full
// per-point reports are available via -json.
func printSweepReport(sp *skip.Spec, rep *skip.Report) {
	if len(rep.Sweep) == 0 {
		return
	}
	inner := rep.Sweep[0].Report
	hwLabel := platformLabel(sp)
	if sp.Fleet != nil {
		var groups []string
		for _, g := range sp.Fleet.Groups {
			desc := fmt.Sprintf("%s:%d", g.Platform, g.Count)
			if g.Role != "" {
				desc += "/" + g.Role
			}
			groups = append(groups, desc)
		}
		hwLabel = "fleet " + strings.Join(groups, ",")
	}
	wlLabel := workloadLabel(sp.Workload)
	// When the swept field is the very one a header label echoes, the
	// label would show the base document's placeholder for every row —
	// mark it swept instead of mislabeling the series.
	switch {
	case rep.SweepField == "platform" || rep.SweepField == "platform_file",
		strings.HasPrefix(rep.SweepField, "fleet.groups"):
		hwLabel += " (swept)"
	case rep.SweepField == "workload.scenario" || rep.SweepField == "workload.trace_file",
		rep.SweepField == "workload.rate_per_sec" && sp.Workload != nil &&
			sp.Workload.Scenario == "" && sp.Workload.TraceFile == "" && sp.Workload.Arrival != "uniform",
		rep.SweepField == "workload.interval_ms" && sp.Workload != nil && sp.Workload.Arrival == "uniform":
		wlLabel += " (swept)"
	}
	fmt.Printf("sweep %s over %d points  (%s: %s / %s, workload=%s)\n",
		rep.SweepField, len(rep.Sweep), inner.Kind,
		hwLabel, sp.Model, wlLabel)
	// Table values round to 6 significant digits — a log-spaced range
	// point is 0.1, not 0.10000000000000002; -json keeps full precision.
	val := func(pt skip.SweepPoint) string {
		if f, ok := pt.Value.(float64); ok {
			return fmt.Sprintf("%.6g", f)
		}
		return fmt.Sprintf("%v", pt.Value)
	}
	switch inner.Kind {
	case skip.KindRun:
		// run.new_tokens can itself be swept across zero, so the series
		// may mix prefill-only points (Report.Run) with generate points
		// (Report.Generate) — choose per point, not from point 0.
		fmt.Printf("  %14s %14s %14s %14s\n", "value", "TTFT", "TPOT", "total")
		for _, pt := range rep.Sweep {
			if g := pt.Report.Generate; g != nil {
				fmt.Printf("  %14s %14v %14v %14v\n", val(pt), g.TTFT, g.TPOT, g.Total)
			} else {
				r := pt.Report.Run
				fmt.Printf("  %14s %14v %14s %14v\n", val(pt), r.TTFT, "-", r.TTFT)
			}
		}
	case skip.KindServe:
		fmt.Printf("  %14s %12s %12s %12s %9s %9s %7s\n",
			"value", "P50 TTFT", "P95 TTFT", "P95 E2E", "tok/s", "goodput", "SLO")
		for _, pt := range rep.Sweep {
			st := pt.Report.Serve
			fmt.Printf("  %14s %12v %12v %12v %9.0f %9.1f %6.0f%%\n",
				val(pt), st.P50TTFT, st.P95TTFT, st.P95E2E,
				st.TokensPerSec, st.Goodput, st.SLOAttainment*100)
		}
	case skip.KindCluster:
		fmt.Printf("  %14s %12s %12s %12s %9s %9s %8s\n",
			"value", "P95 TTFT", "P50 TPOT", "P95 E2E", "tok/s", "goodput", "rejected")
		for _, pt := range rep.Sweep {
			st := pt.Report.Cluster
			fmt.Printf("  %14s %12v %12v %12v %9.0f %9.1f %8d\n",
				val(pt), st.P95TTFT, st.P50TPOT, st.P95E2E,
				st.TokensPerSec, st.Goodput, st.Rejected)
		}
	case skip.KindDisagg:
		fmt.Printf("  %14s %12s %12s %12s %9s %10s %12s\n",
			"value", "P95 TTFT", "P95 E2E", "goodput", "transfers", "wire mean", "stall mean")
		for _, pt := range rep.Sweep {
			st := pt.Report.Disagg
			fmt.Printf("  %14s %12v %12v %12.1f %9d %10v %12v\n",
				val(pt), st.P95TTFT, st.P95E2E, st.Goodput,
				st.Transfers, st.MeanTransfer, st.MeanTransferStall)
		}
	}
}

// platformLabel names the spec's platform for report headers; specs
// using platform_file show the file reference.
func platformLabel(sp *skip.Spec) string {
	if sp.PlatformFile != "" {
		return "file:" + sp.PlatformFile
	}
	return sp.Platform
}

// workloadLabel names the spec's request stream for report headers.
func workloadLabel(w *skip.WorkloadSpec) string {
	switch {
	case w == nil:
		return "none"
	case w.TraceFile != "":
		return "trace:" + w.TraceFile
	case w.Scenario != "":
		return w.Scenario
	case w.Arrival == "uniform":
		return fmt.Sprintf("uniform every %gms", w.IntervalMs)
	default:
		return fmt.Sprintf("poisson %g req/s", w.RatePerSec)
	}
}

func printServeReport(sp *skip.Spec, rep *skip.Report) {
	stats := rep.Serve
	policy := "continuous"
	var sloSet, continuous bool
	if sp.Serve != nil && sp.Serve.Policy != "" {
		policy = sp.Serve.Policy
	}
	if sp.Serve != nil {
		sloSet = sp.Serve.TTFTSLOMs > 0
	}
	p, _ := skip.ParseServePolicy(policy)
	continuous = p == skip.ContinuousBatch || p == skip.ChunkedPrefill

	fmt.Printf("%s / %s  policy=%s workload=%s  %d requests\n",
		platformLabel(sp), sp.Model, policy, workloadLabel(sp.Workload), rep.Offered)
	fmt.Printf("  mean batch   %.1f over %d iterations\n", stats.MeanBatch, stats.Batches)
	printLatency(&stats.Latency, continuous)
	if continuous {
		fmt.Printf("  KV cache     peak %.1f%% of %.1f GB budget  (time-weighted mean %.1f%%)\n",
			stats.PeakKVFrac*100, stats.KVCapacityBytes/1e9, stats.MeanKVFrac*100)
		printKVCache(stats.KVCache)
		fmt.Printf("  tokens       %.0f tok/s\n", stats.TokensPerSec)
		if stats.Preemptions > 0 || stats.Abandoned > 0 {
			fmt.Printf("  pressure     %d preemptions, %d abandoned, max queue %d\n",
				stats.Preemptions, stats.Abandoned, stats.MaxQueueDepth)
		}
	}
	fmt.Printf("  throughput   %.1f req/s", stats.Throughput)
	if sloSet {
		fmt.Printf("  (goodput %.1f req/s, %.0f%% in SLO)", stats.Goodput, stats.SLOAttainment*100)
	}
	fmt.Println()
}

func printClusterReport(sp *skip.Spec, rep *skip.Report) {
	stats := rep.Cluster
	sloSet := sp.Serve != nil && sp.Serve.TTFTSLOMs > 0
	var fleetDesc []string
	for _, g := range sp.Fleet.Groups {
		fleetDesc = append(fleetDesc, fmt.Sprintf("%s:%d", g.Platform, g.Count))
	}
	fmt.Printf("fleet %s  model=%s router=%s workload=%s  %d requests\n",
		strings.Join(fleetDesc, ","), sp.Model, stats.RouterPolicy,
		workloadLabel(sp.Workload), rep.Offered)
	fmt.Printf("  ledger       %d offered = %d rejected + %d unroutable + %d routed (%d completed, %d abandoned, %d preempted)\n",
		stats.Offered, stats.Rejected, stats.Unroutable, stats.Routed,
		stats.Completed, stats.Abandoned, stats.Preemptions)
	printPooled(&stats.Pooled, sloSet, "routed counts")
	printKVCache(stats.KVCache)
	printChaos(stats.Chaos)
	printRouting("routing", stats.Routing)
	fmt.Println()

	fmt.Printf("  %-16s %7s %7s %12s %12s %9s %8s %8s\n",
		"instance", "routed", "done", "P95 TTFT", "P95 E2E", "tok/s", "peak KV", "preempt")
	for _, is := range stats.Instances {
		fmt.Printf("  %-16s %7d %7d %12v %12v %9.0f %7.1f%% %8d\n",
			is.Name, is.Routed, is.Serve.Completed,
			is.Serve.P95TTFT, is.Serve.P95E2E, is.Serve.TokensPerSec,
			is.Serve.PeakKVFrac*100, is.Serve.Preemptions)
	}

	shares := make([]platformShare, len(stats.Instances))
	for i, is := range stats.Instances {
		shares[i] = platformShare{
			platform: is.Platform, placed: is.Routed, done: is.Serve.Completed,
			tokps: is.Serve.TokensPerSec, slo: is.Serve.SLOAttainment,
			firsts: firstTokens(&is.Serve),
		}
	}
	printPlatformBreakdown(sloSet, shares)
}

// printPooled renders a fleet report's pooled latencies, rates and
// load spread; spread names what the imbalance CV is taken over.
func printPooled(p *cluster.Pooled, sloSet bool, spread string) {
	printLatency(&p.Latency, true)
	fmt.Printf("  throughput   %.1f req/s  (%.0f tok/s)", p.Throughput, p.TokensPerSec)
	if sloSet {
		fmt.Printf("  goodput %.1f req/s, %.0f%% in SLO", p.Goodput, p.SLOAttainment*100)
	}
	fmt.Println()
	fmt.Printf("  imbalance    %.3f (CV of per-instance %s)\n", p.LoadImbalance, spread)
}

// printLatency renders the TTFT line and, for reports whose requests
// decode, the TPOT and E2E lines.
func printLatency(l *skip.Latency, decode bool) {
	fmt.Printf("  TTFT         mean %v  P50 %v  P95 %v  P99 %v  max %v\n",
		l.MeanTTFT, l.P50TTFT, l.P95TTFT, l.P99TTFT, l.MaxTTFT)
	if decode {
		fmt.Printf("  TPOT         mean %v  P50 %v  P95 %v\n", l.MeanTPOT, l.P50TPOT, l.P95TPOT)
		fmt.Printf("  E2E          mean %v  P50 %v  P95 %v  max %v\n",
			l.MeanE2E, l.P50E2E, l.P95E2E, l.MaxE2E)
	}
}

// platformShare is one instance's contribution to the per-platform
// breakdown.
type platformShare struct {
	platform string
	placed   int
	done     int
	tokps    float64
	slo      float64
	// firsts weighs slo: the first tokens the instance served.
	firsts int
}

// firstTokens estimates how many first tokens an instance served, the
// sample count behind its TTFT percentiles and SLO attainment: every
// completion and every prefill handed away, less the requests resumed
// from another instance's prefill. A monolithic instance's count is its
// Completed. Under crash requeue the estimate is approximate: a killed
// request whose first token was already served is not counted.
func firstTokens(s *skip.ServeStats) int {
	return s.Completed + s.HandedOff - s.Resumed
}

// printPlatformBreakdown aggregates the per-instance table by platform —
// the heterogeneous-fleet view: which hardware carried the load, and how
// each platform class fared against the TTFT SLO. Single-platform fleets
// skip it (the instance table above already is the breakdown); the SLO
// column is the per-instance attainment weighted by first tokens served,
// "-" for a platform that served none.
func printPlatformBreakdown(sloSet bool, shares []platformShare) {
	type row struct {
		inst, placed, done int
		tokps, sloW        float64
		sloN               int
	}
	var order []string
	agg := make(map[string]*row)
	for _, sh := range shares {
		r := agg[sh.platform]
		if r == nil {
			r = &row{}
			agg[sh.platform] = r
			order = append(order, sh.platform)
		}
		r.inst++
		r.placed += sh.placed
		r.done += sh.done
		r.tokps += sh.tokps
		r.sloW += float64(sh.slo * float64(sh.firsts))
		r.sloN += sh.firsts
	}
	if len(order) < 2 {
		return
	}
	fmt.Println()
	hdr := fmt.Sprintf("  %-16s %5s %7s %7s %9s", "platform", "inst", "placed", "done", "tok/s")
	if sloSet {
		hdr += fmt.Sprintf(" %8s", "SLO")
	}
	fmt.Println(hdr)
	for _, p := range order {
		r := agg[p]
		line := fmt.Sprintf("  %-16s %5d %7d %7d %9.0f", p, r.inst, r.placed, r.done, r.tokps)
		if sloSet {
			slo := "-"
			if r.sloN > 0 {
				slo = fmt.Sprintf("%.0f%%", r.sloW/float64(r.sloN)*100)
			}
			line += fmt.Sprintf(" %8s", slo)
		}
		fmt.Println(line)
	}
}

// printRouting renders the decision-record summary a -counterfactual-k
// (or observability.counterfactual_k) run carries; full per-decision
// records are available via -json.
func printRouting(label string, r *skip.RoutingStats) {
	if r == nil {
		return
	}
	fmt.Printf("  %-12s %d picks under %s (top-%d alternatives recorded)\n",
		label, r.Picks, r.Policy, r.K)
	for _, cf := range r.Counterfactuals {
		pct := 0.0
		if cf.Picks > 0 {
			pct = 100 * float64(cf.Differed) / float64(cf.Picks)
		}
		fmt.Printf("    %-16s would have placed %d/%d picks differently (%.0f%%)\n",
			cf.Policy, cf.Differed, cf.Picks, pct)
	}
}

func printDisaggReport(sp *skip.Spec, rep *skip.Report) {
	stats := rep.Disagg
	sloSet := sp.Serve != nil && sp.Serve.TTFTSLOMs > 0
	var fleetDesc []string
	for _, g := range sp.Fleet.Groups {
		role := g.Role
		if role == "" {
			role = "both"
		}
		fleetDesc = append(fleetDesc, fmt.Sprintf("%s:%d/%s", g.Platform, g.Count, role))
	}
	fmt.Printf("disagg fleet %s  model=%s prefill-router=%s decode-router=%s workload=%s  %d requests\n",
		strings.Join(fleetDesc, ","), sp.Model, stats.PrefillPolicy, stats.DecodePolicy,
		workloadLabel(sp.Workload), rep.Offered)
	fmt.Printf("  ledger       %d offered = %d rejected + %d unroutable + %d routed\n",
		stats.Offered, stats.Rejected, stats.Unroutable, stats.Routed)
	fmt.Printf("  handoffs     %d handed off = %d resumed + %d dropped  (%d completed, %d abandoned, %d preempted)\n",
		stats.HandedOff, stats.Resumed, stats.TransferDrops,
		stats.Completed, stats.Abandoned, stats.Preemptions)
	fmt.Printf("  KV transfer  %d transfers, %.2f GB moved  wire mean %v max %v  stall mean %v\n",
		stats.Transfers, stats.KVBytesMoved/1e9,
		stats.MeanTransfer, stats.MaxTransfer, stats.MeanTransferStall)
	printPooled(&stats.Pooled, sloSet, "placed work")
	printKVCache(stats.KVCache)
	printChaos(stats.Chaos)
	printRouting("prefill", stats.PrefillRouting)
	printRouting("decode", stats.DecodeRouting)
	fmt.Println()

	fmt.Printf("  %-24s %7s %7s %7s %12s %9s %8s\n",
		"instance", "routed", "resumed", "done", "P95 TTFT", "tok/s", "peak KV")
	shares := make([]platformShare, len(stats.Instances))
	for i, is := range stats.Instances {
		// A decode-only member serves no first tokens: it has no TTFT
		// to show and no weight in its platform's SLO attainment.
		p95TTFT, firsts := "-", 0
		if is.Role != cluster.RoleDecode.String() {
			p95TTFT, firsts = is.Serve.P95TTFT.String(), firstTokens(&is.Serve)
		}
		fmt.Printf("  %-24s %7d %7d %7d %12s %9.0f %7.1f%%\n",
			is.Name, is.Routed, is.Resumed, is.Serve.Completed,
			p95TTFT, is.Serve.TokensPerSec, is.Serve.PeakKVFrac*100)
		shares[i] = platformShare{
			platform: is.Platform, placed: is.Routed + is.Resumed, done: is.Serve.Completed,
			tokps: is.Serve.TokensPerSec, slo: is.Serve.SLOAttainment, firsts: firsts,
		}
	}
	printPlatformBreakdown(sloSet, shares)
}

// printKVCache renders the prefix-cache ledger a fleet.kv_cache section
// produces; cacheless reports carry none and print nothing.
func printKVCache(k *skip.KVCacheStats) {
	if k == nil {
		return
	}
	fmt.Printf("  prefix cache %d lookups = %d hits + %d restored + %d misses + %d unallocated  (%.0f%% hit, %d tokens reused)\n",
		k.Lookups, k.Hits, k.Restored, k.Misses, k.Unallocated, k.HitRate*100, k.ReusedTokens)
	if k.Evictions > 0 || k.Spills > 0 {
		fmt.Printf("               %d evictions (%d spilled, %d host-dropped)  restore stall %v over %.2f GB\n",
			k.Evictions, k.Spills, k.HostEvictions, k.RestoreStall, k.RestoredBytes/1e9)
	}
}

// printChaos renders the churn ledger of a dynamic fleet (autoscale or
// fault injection active); static fleets carry none and print nothing.
func printChaos(c *skip.ChaosStats) {
	if c == nil {
		return
	}
	fmt.Printf("  fleet churn  %d joins, %d drains  active peak %d → final %d\n",
		c.Joins, c.Drains, c.PeakActive, c.FinalActive)
	fmt.Printf("  faults       %d crashes, %d slow nodes, %d degraded links\n",
		c.Crashes, c.SlowNodes, c.DegradedLinks)
	fmt.Printf("  requeues     %d killed = %d requeued + %d dropped  (%d session re-pins)\n",
		c.Killed, c.Requeued, c.Dropped, c.Repins)
}

func printGenerate(sp *skip.Spec, res *skip.GenerateResult) {
	fmt.Printf("%s / %s  BS=%d prompt=%d tokens=%d mode=%s\n",
		res.Request.Platform.Name, res.Request.Model.Name,
		sp.Run.Batch, sp.Run.Seq, sp.Run.NewTokens, res.Request.Mode)
	fmt.Printf("  TTFT (prefill)    %v  (%d kernels, GPU busy %v)\n",
		res.TTFT, res.PrefillKernels, res.PrefillGPUBusy)
	fmt.Printf("  TPOT (per token)  %v  (%d kernels/step)\n", res.TPOT, res.DecodeKernelsPerStep)
	fmt.Printf("  decode total      %v  (GPU busy %v)\n", res.DecodeTime, res.DecodeGPUBusy)
	fmt.Printf("  end-to-end        %v\n", res.Total)
}
