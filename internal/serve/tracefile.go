package serve

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/skipsim/skip/internal/sim"
)

// Request-trace replay: instead of generating a synthetic workload, a
// simulation can replay a logged request stream — arrival instants,
// prompt and output lengths, and optional session IDs — through the
// same serving and cluster pipelines. The format is CSV with a header
// row naming the columns:
//
//	arrival_ms,prompt_tokens,output_tokens,session_id
//	0,384,96,0
//	12.5,2048,64,1
//
// Column order is free; output_tokens and session_id are optional
// (missing output lengths fall back to the config's default, zero
// session means "no session"). Lines starting with '#' are comments.
// Rows must be sorted by arrival_ms: an out-of-order log is rejected
// rather than silently reordered.

// traceColumns maps accepted header names to canonical columns.
var traceColumns = map[string]string{
	"arrival_ms":    "arrival",
	"arrival":       "arrival",
	"prompt_tokens": "prompt",
	"prompt":        "prompt",
	"output_tokens": "output",
	"output":        "output",
	"session_id":    "session",
	"session":       "session",
}

// ParseTrace reads a request trace from r (see the package comment on
// the CSV schema) and returns the stream with IDs assigned in row
// order. Rows must be sorted by arrival — a log whose timestamps go
// backwards is corrupt (or mis-exported), and silently reordering it
// would hide that while changing which request each row's neighbors
// race against — so a non-monotonic arrival_ms is rejected with its
// line number, as are negative token counts. Reported line numbers are
// true file lines (from the reader's field positions), so comment
// lines and the header don't shift them: "line 5" is line 5 of the
// file, not the fifth data record.
func ParseTrace(r io.Reader) ([]Request, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.Comment = '#'

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("serve: trace: reading header: %w", err)
	}
	cols := make(map[string]int) // canonical column → field index
	for i, h := range header {
		name, ok := traceColumns[strings.ToLower(strings.TrimSpace(h))]
		if !ok {
			return nil, fmt.Errorf("serve: trace: unknown column %q (have arrival_ms|prompt_tokens|output_tokens|session_id)", h)
		}
		if _, dup := cols[name]; dup {
			return nil, fmt.Errorf("serve: trace: duplicate column %q", h)
		}
		cols[name] = i
	}
	for _, required := range []string{"arrival", "prompt"} {
		if _, ok := cols[required]; !ok {
			return nil, fmt.Errorf("serve: trace: missing required column %s", required)
		}
	}

	var reqs []Request
	prevMs := -1.0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// csv.ParseError already names the true file line and column.
			return nil, fmt.Errorf("serve: trace: %w", err)
		}
		// FieldPos reports where the record actually sits in the file —
		// comment lines and the header have already consumed lines, so a
		// record counter would point the user at the wrong place.
		line, _ := cr.FieldPos(0)
		arrivalMs, err := strconv.ParseFloat(strings.TrimSpace(rec[cols["arrival"]]), 64)
		// !(≥ 0) rejects NaN too; 2^63 ns does not fit a sim.Time.
		if err != nil || !(arrivalMs >= 0) || arrivalMs*1e6 >= 1<<63 {
			return nil, fmt.Errorf("serve: trace: line %d: arrival_ms must be a non-negative number below 9.2e12, got %q", line, rec[cols["arrival"]])
		}
		if arrivalMs < prevMs {
			return nil, fmt.Errorf("serve: trace: line %d: arrival_ms %g goes back in time (previous row arrived at %g); traces must be sorted by arrival", line, arrivalMs, prevMs)
		}
		prevMs = arrivalMs
		prompt, err := strconv.ParseInt(strings.TrimSpace(rec[cols["prompt"]]), 10, 64)
		if err != nil || prompt <= 0 {
			return nil, fmt.Errorf("serve: trace: line %d: prompt_tokens must be a positive integer, got %q", line, rec[cols["prompt"]])
		}
		req := Request{
			ID:        len(reqs),
			Arrival:   sim.Time(arrivalMs * 1e6),
			PromptLen: prompt,
		}
		if idx, ok := cols["output"]; ok {
			out, err := strconv.ParseInt(strings.TrimSpace(rec[idx]), 10, 64)
			if err != nil || out < 0 {
				return nil, fmt.Errorf("serve: trace: line %d: output_tokens must be a non-negative integer, got %q", line, rec[idx])
			}
			req.OutputLen = out
		}
		if idx, ok := cols["session"]; ok {
			sess, err := strconv.ParseInt(strings.TrimSpace(rec[idx]), 10, 64)
			if err != nil || sess < 0 {
				return nil, fmt.Errorf("serve: trace: line %d: session_id must be a non-negative integer, got %q", line, rec[idx])
			}
			req.SessionID = sess
		}
		reqs = append(reqs, req)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: trace: no request rows")
	}
	return reqs, nil
}

// LoadTraceFile reads a request-trace CSV file (see ParseTrace).
func LoadTraceFile(path string) ([]Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: trace: %w", err)
	}
	defer f.Close()
	reqs, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return reqs, nil
}
