package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

func TestParseTrace(t *testing.T) {
	reqs, err := ParseTrace(strings.NewReader(
		"# a comment\n" +
			"arrival_ms,prompt_tokens,output_tokens,session_id\n" +
			"0,128,0,0\n" +
			"12.5,256,32,1\n" +
			"3000,2048,64,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("parsed %d requests, want 3", len(reqs))
	}
	if reqs[0].ID != 0 || reqs[0].Arrival != 0 || reqs[0].PromptLen != 128 {
		t.Errorf("first request = %+v", reqs[0])
	}
	if reqs[1].Arrival != sim.Time(12.5*1e6) || reqs[1].OutputLen != 32 || reqs[1].SessionID != 1 {
		t.Errorf("second request = %+v", reqs[1])
	}
	if reqs[2].Arrival != 3*sim.Second || reqs[2].SessionID != 2 {
		t.Errorf("third request = %+v", reqs[2])
	}
}

// TestParseTraceRejectsOutOfOrder: timestamps that go backwards mean a
// corrupt or mis-exported log; the parser names the offending line
// instead of silently reordering the calendar.
func TestParseTraceRejectsOutOfOrder(t *testing.T) {
	// The offending record is the third data row — file line 4, after
	// the header on line 1.
	_, err := ParseTrace(strings.NewReader(
		"arrival_ms,prompt_tokens\n5,128\n12.5,64\n3,256\n"))
	if err == nil {
		t.Fatal("out-of-order trace should fail")
	}
	if !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "back in time") {
		t.Errorf("error should name line 4 and the cause, got: %v", err)
	}
	// Equal timestamps are fine: logs often batch at one instant.
	if _, err := ParseTrace(strings.NewReader(
		"arrival_ms,prompt_tokens\n5,128\n5,64\n")); err != nil {
		t.Errorf("equal arrivals should parse: %v", err)
	}
}

// TestParseTraceErrorLineNumbers: reported positions must be true file
// lines — comment lines and the header consume lines too, so a record
// counter would point at the wrong place in an editor.
func TestParseTraceErrorLineNumbers(t *testing.T) {
	cases := []struct {
		name     string
		doc      string
		wantLine string
	}{
		{"comments shift the header", "# exported 2026-07-01\n# source: gateway logs\narrival_ms,prompt_tokens\n5,128\nbad,64\n", "line 5"},
		{"interleaved comment", "arrival_ms,prompt_tokens\n5,128\n# resumed after rotation\n7,0\n", "line 4"},
		{"first data row", "arrival_ms,prompt_tokens\n-1,128\n", "line 2"},
	}
	for _, tc := range cases {
		_, err := ParseTrace(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: ParseTrace should fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantLine) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantLine)
		}
	}
}

func TestParseTraceColumnOrderAndOptionals(t *testing.T) {
	reqs, err := ParseTrace(strings.NewReader(
		"prompt_tokens,arrival_ms\n512,7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].PromptLen != 512 || reqs[0].OutputLen != 0 || reqs[0].SessionID != 0 {
		t.Errorf("request = %+v", reqs[0])
	}
}

func TestParseTraceRejectsBadInput(t *testing.T) {
	for name, doc := range map[string]string{
		"unknown column":       "arrival_ms,prompt_tokens,latency\n1,2,3\n",
		"duplicate column":     "arrival_ms,arrival,prompt_tokens\n1,2,3\n",
		"missing arrival":      "prompt_tokens,output_tokens\n128,8\n",
		"missing prompt":       "arrival_ms,output_tokens\n1,8\n",
		"negative arrival":     "arrival_ms,prompt_tokens\n-5,128\n",
		"NaN arrival":          "arrival_ms,prompt_tokens\nNaN,128\n3,64\n",
		"infinite arrival":     "arrival_ms,prompt_tokens\n+Inf,128\n",
		"arrival past 2^63 ns": "arrival_ms,prompt_tokens\n5,128\n9.3e12,64\n",
		"zero prompt":          "arrival_ms,prompt_tokens\n5,0\n",
		"bad number":           "arrival_ms,prompt_tokens\nsoon,128\n",
		"negative output":      "arrival_ms,prompt_tokens,output_tokens\n5,128,-1\n",
		"no rows":              "arrival_ms,prompt_tokens\n",
		"empty":                "",
	} {
		if _, err := ParseTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ParseTrace should fail", name)
		}
	}
}

func TestTraceReplayThroughSimulate(t *testing.T) {
	reqs, err := ParseTrace(strings.NewReader(
		"arrival_ms,prompt_tokens,output_tokens\n0,128,4\n10,256,4\n20,128,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Simulate(contConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 3 {
		t.Errorf("completed %d of 3 replayed requests", stats.Completed)
	}
}

// FuzzParseTrace: on any CSV, ParseTrace either returns an error or a
// stream whose IDs count 0…n−1 in row order, whose arrivals are
// non-negative and non-decreasing, and whose prompts are positive. It
// never panics. The corpus is seeded from the checked-in agentic log and
// the hand-written cases above.
func FuzzParseTrace(f *testing.F) {
	log, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "traces", "agentic_sessions.csv"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(log))
	for _, doc := range []string{
		"# a comment\narrival_ms,prompt_tokens,output_tokens,session_id\n0,128,0,0\n12.5,256,32,1\n",
		"prompt_tokens,arrival_ms\n512,7\n",
		"arrival_ms,prompt_tokens\n5,128\n5,64\n",
		"arrival_ms,prompt_tokens\n5,128\n12.5,64\n3,256\n",
		"arrival,prompt,output,session\n 1 , 2 , 3 , 4 \n",
		"arrival_ms,prompt_tokens\nNaN,128\n3,64\n",
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		reqs, err := ParseTrace(strings.NewReader(doc))
		if err != nil {
			return
		}
		if len(reqs) == 0 {
			t.Fatal("no error and no requests")
		}
		for i, r := range reqs {
			if r.ID != i {
				t.Fatalf("request %d has ID %d", i, r.ID)
			}
			if r.Arrival < 0 || (i > 0 && r.Arrival < reqs[i-1].Arrival) {
				t.Fatalf("request %d arrives at %d after %d", i, r.Arrival, reqs[max(i-1, 0)].Arrival)
			}
			if r.PromptLen <= 0 {
				t.Fatalf("request %d has prompt length %d", i, r.PromptLen)
			}
		}
	})
}
