package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/bench"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent process re-executes os.Executable() for every replay.
func TestMain(m *testing.M) {
	if arg, ok := os.LookupEnv(childEnv); ok {
		os.Exit(runChild(arg))
	}
	os.Exit(m.Run())
}

func TestEveryWorkloadLoadsAndValidates(t *testing.T) {
	for _, name := range workloadNames {
		for _, in := range []inputs{
			{Workload: name},
			{Workload: name, Seed: 5, Seeded: true, Stream: 1},
			{Workload: name, Quick: true},
		} {
			w, err := load(in)
			if err != nil {
				t.Fatalf("%+v: %v", in, err)
			}
			if w.paper() != (name == "paper") {
				t.Errorf("%s: paper() = %v", name, w.paper())
			}
		}
	}
	if _, err := load(inputs{Workload: "nope"}); err == nil {
		t.Error("unknown workload loaded")
	}
}

func TestStreamsSeedWorkloadAndFaults(t *testing.T) {
	own, err := load(inputs{Workload: "disagg_chaos"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := load(inputs{Workload: "disagg_chaos", Seed: 99, Seeded: true, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if w.spec.Workload.Seed != own.spec.Workload.Seed || w.spec.Fleet.Faults.Seed != own.spec.Fleet.Faults.Seed {
		t.Error("stream 0 did not keep the spec's own seeds")
	}
	if w.spec.Workload.Requests != 8000/quickDivisor {
		t.Errorf("quick requests = %d", w.spec.Workload.Requests)
	}
	w, err = load(inputs{Workload: "disagg_chaos", Seed: 99, Seeded: true, Stream: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(99 + 2*streamStride)
	if w.spec.Workload.Seed != want || w.spec.Fleet.Faults.Seed != want {
		t.Errorf("stream 2 seeds = %d, %d; want %d", w.spec.Workload.Seed, w.spec.Fleet.Faults.Seed, want)
	}
}

// quickDigest replays a workload in process at quick scale.
func quickDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	w, err := load(inputs{Workload: name, Seed: seed, Seeded: true, Stream: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := out.verify()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSeedChangesStreamAndDigest(t *testing.T) {
	stream := func(seed int64) string {
		w, err := load(inputs{Workload: "chat8", Seed: seed, Seeded: true, Stream: 1, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := serveWorkload(w.spec)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := sw.Generate()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if stream(1) != stream(1) {
		t.Error("same seed, different request streams")
	}
	if stream(1) == stream(2) {
		t.Error("seeds 1 and 2 gave the same request stream")
	}
	a, b, c := quickDigest(t, "chat8", 1), quickDigest(t, "chat8", 1), quickDigest(t, "chat8", 2)
	if a != b {
		t.Errorf("same seed, digests %s and %s", a, b)
	}
	if a == c {
		t.Error("seeds 1 and 2 gave the same digest")
	}
}

func TestLedgerGateCatchesBrokenReports(t *testing.T) {
	for _, name := range []string{"agentic_cache", "disagg_chaos"} {
		w, err := load(inputs{Workload: name, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkLedgers(out.report); err != nil {
			t.Fatalf("%s: intact report fails: %v", name, err)
		}
		// Each tamper shifts one ledger entry by d; +1 must break the
		// ledger, -1 restores it.
		var tampers []func(d int)
		if st := out.report.Cluster; st != nil {
			tampers = append(tampers,
				func(d int) { st.Routed += d },
				func(d int) { st.Completed += d },
				func(d int) { st.KVCache.Lookups += int64(d) },
			)
		}
		if st := out.report.Disagg; st != nil {
			tampers = append(tampers,
				func(d int) { st.HandedOff += d },
				func(d int) { st.Rejected += d },
				func(d int) { st.Chaos.Killed += d },
			)
		}
		if len(tampers) == 0 {
			t.Fatalf("%s: no fleet stats", name)
		}
		for i, tamper := range tampers {
			tamper(1)
			if err := checkLedgers(out.report); err == nil {
				t.Errorf("%s: tamper %d passed the ledger check", name, i)
			}
			tamper(-1)
		}
		if err := checkLedgers(out.report); err != nil {
			t.Errorf("%s: restored report fails: %v", name, err)
		}
	}
}

func TestPaperDigestSortsChecksAndFailsFailedChecks(t *testing.T) {
	x := bench.Check{Name: "x", Got: "1", Want: "1", Pass: true}
	y := bench.Check{Name: "y", Got: "2", Want: "2", Pass: true}
	a, err := paperDigest([]*bench.Result{{ID: "fig5", Checks: []bench.Check{x, y}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := paperDigest([]*bench.Result{{ID: "fig5", Checks: []bench.Check{y, x}}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("check order changed the digest")
	}
	y.Pass = false
	if _, err := paperDigest([]*bench.Result{{ID: "fig5", Checks: []bench.Check{x, y}}}); err == nil {
		t.Error("a failed check passed")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
		if !reflect.DeepEqual(in, c.in) && c.in != nil {
			t.Errorf("median reordered its input to %v", in)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", bf.PerLayer, perLayer)
	}
}

// runQuick drives the benchmark at quick scale and returns each
// workload's summary line.
func runQuick(t *testing.T, args ...string) []summary {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-quick", "-out", t.TempDir()}, args...)
	if code := drive(args, &stdout, &stderr); code != 0 {
		t.Fatalf("drive %v exited %d:\n%s%s", args, code, stdout.String(), stderr.String())
	}
	var sums []summary
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "{") {
			var s summary
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatal(err)
			}
			sums = append(sums, s)
		}
	}
	return sums
}

func metricNames(s summary) []string {
	var names []string
	for k := range s.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func declNames(ds []decl) []string {
	var names []string
	for _, d := range ds {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func TestQuickRunPassesAndPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns replay processes")
	}
	sums := runQuick(t)
	if len(sums) != len(workloadNames) {
		t.Fatalf("%d summaries for %d workloads", len(sums), len(workloadNames))
	}
	for i, s := range sums {
		if !s.Correct || s.Failed != 0 || s.Attempted != replaysPerStream {
			t.Errorf("%s: correct %v, %d of %d failed", workloadNames[i], s.Correct, s.Failed, s.Attempted)
		}
		if got, want := metricNames(s), declNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: printed %v, declared %v", workloadNames[i], got, want)
		}
	}
}

func TestQuickTracedRunPrintsDeclaredLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns replay processes")
	}
	for _, name := range []string{"agentic_cache", "paper"} {
		sums := runQuick(t, "-workload", name, "-trace", "1")
		if len(sums) != 1 || !sums[0].Correct {
			t.Fatalf("%s: summaries %+v", name, sums)
		}
		if got, want := metricNames(sums[0]), declNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: printed %v, declared %v", name, got, want)
		}
	}
}
