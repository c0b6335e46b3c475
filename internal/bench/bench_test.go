package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/hw"
)

// paperArtifacts are the paper's tables and figures, the artifacts the
// benchmark's paper workload replays.
var paperArtifacts = []string{
	"table1", "table3", "table4", "table5",
	"fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
}

func TestRegistryCoversEveryArtifact(t *testing.T) {
	want := paperArtifacts
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id should fail")
	}
	ids := IDs()
	if len(ids) < len(want) {
		t.Errorf("registry has %d experiments, want ≥ %d", len(ids), len(want))
	}
	// Presentation order: tables before figures.
	if !strings.HasPrefix(ids[0], "table") {
		t.Errorf("first id = %s, want a table", ids[0])
	}
}

func TestAllExperimentsPassTheirChecks(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if r.ID != e.ID {
				t.Errorf("result ID = %s", r.ID)
			}
			if len(r.Tables) == 0 {
				t.Error("experiment produced no tables")
			}
			for _, c := range r.Checks {
				if !c.Pass {
					t.Errorf("check %q failed: got %s, paper %s", c.Name, c.Got, c.Want)
				}
			}
			if !r.Passed() {
				t.Error("Passed() = false")
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "1", "4", "note: a note", "--"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestResultRender(t *testing.T) {
	r := Result{
		ID:     "x",
		Title:  "X",
		Tables: []Table{{Title: "t", Columns: []string{"c"}, Rows: [][]string{{"v"}}}},
		Checks: []Check{{Name: "n", Got: "1", Want: "2", Pass: false}},
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[FAIL] n") {
		t.Errorf("render missing failed check:\n%s", out)
	}
	if r.Passed() {
		t.Error("Passed with failing check")
	}
}

func TestCheckHelpers(t *testing.T) {
	c := checkBand("b", 5, 4, 6, "≈5")
	if !c.Pass {
		t.Error("in-band should pass")
	}
	c = checkBand("b", 7, 4, 6, "≈5")
	if c.Pass {
		t.Error("out-of-band should fail")
	}
	c = checkBool("x", true, "g", "w")
	if !c.Pass || c.Got != "g" || c.Want != "w" {
		t.Errorf("checkBool = %+v", c)
	}
}

// TestFig5CheckOrderFollowsTable: fig5's checks come one per table row,
// in the table's model order, on every run.
func TestFig5CheckOrderFollowsTable(t *testing.T) {
	var first []string
	for run := 0; run < 20; run++ {
		r, err := runFig5()
		if err != nil {
			t.Fatal(err)
		}
		rows := r.Tables[0].Rows
		if len(r.Checks) != len(rows) {
			t.Fatalf("run %d: %d checks for %d table rows", run, len(r.Checks), len(rows))
		}
		var names []string
		for i, c := range r.Checks {
			if want := rows[i][0] + " kernel count ordering eager>FA>TC"; c.Name != want {
				t.Fatalf("run %d: check %d = %q, want %q", run, i, c.Name, want)
			}
			names = append(names, c.Name)
		}
		if first == nil {
			first = names
		} else if strings.Join(names, "\n") != strings.Join(first, "\n") {
			t.Fatalf("run %d check order %v differs from run 0 %v", run, names, first)
		}
	}
}

// TestExtDecodeCheckOrderFollowsPlatforms: ext2-decode's per-platform
// checks come in evaluation-platform order, then the GH200 TPOT check,
// on every run.
func TestExtDecodeCheckOrderFollowsPlatforms(t *testing.T) {
	plats := hw.EvaluationPlatforms()
	for run := 0; run < 10; run++ {
		r, err := runExtDecode()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Checks) != len(plats)+1 {
			t.Fatalf("run %d: %d checks for %d platforms", run, len(r.Checks), len(plats))
		}
		for i, p := range plats {
			if want := p.Name + " decode more launch-bound than prefill"; r.Checks[i].Name != want {
				t.Fatalf("run %d: check %d = %q, want %q", run, i, r.Checks[i].Name, want)
			}
		}
	}
}

// TestFig10CheckOrderFollowsModels: fig10's checks come in blocks of
// five per model, in the tables' model order, on every run.
func TestFig10CheckOrderFollowsModels(t *testing.T) {
	const perModel = 5
	for run := 0; run < 5; run++ {
		r, err := runFig10()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Checks) != perModel*len(encoderModels) {
			t.Fatalf("run %d: %d checks for %d models", run, len(r.Checks), len(encoderModels))
		}
		for i, c := range r.Checks {
			if model := encoderModels[i/perModel]; !strings.HasPrefix(c.Name, model+" ") {
				t.Fatalf("run %d: check %d = %q, want a %s check", run, i, c.Name, model)
			}
		}
	}
}
