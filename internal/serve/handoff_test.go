package serve

import (
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

// TestPrefillHandoffLifecycle drives the one hand-over record through
// both of its paths on one calendar, without a fleet layer:
//   - a prefill-only instance hands every multi-token request off
//     exactly once, at its first token, with resolved lengths, and a
//     one-token request completes there;
//   - Resume on a second instance completes each handed-off request,
//     with exactly one TTFT sample per request across both;
//   - a kill mid-prefill evicts requests that AcceptRequeued re-places
//     on another prefill-only instance, where they hand off again.
func TestPrefillHandoffLifecycle(t *testing.T) {
	cfg := contConfig() // Seq 64, DefaultOutputLen 4
	reqs := []Request{
		{ID: 0, OutputLen: 1},                // one token: completes locally
		{ID: 1},                              // both lengths resolved from the config
		{ID: 2, PromptLen: 32, OutputLen: 6}, // explicit lengths
		{ID: 3, PromptLen: 100},
		{ID: 4, OutputLen: 9},
	}
	for i := range reqs {
		reqs[i].Arrival = sim.Time(i) * sim.Microsecond
	}
	resolved := func(r Request) Request {
		if r.PromptLen == 0 {
			r.PromptLen = cfg.Seq
		}
		if r.OutputLen == 0 {
			r.OutputLen = cfg.DefaultOutputLen
		}
		return r
	}

	// run accepts reqs on a prefill-only instance a at their arrival
	// instants; when killAt > 0 it kills a then and requeues every
	// eviction on a second prefill-only instance b. Every handoff
	// resumes at once on the decode instance d. It returns the handoffs
	// per source instance and the instances.
	type world struct {
		a, b, d *Instance
		handed  map[string][]Handoff
		evicted []Handoff
	}
	run := func(killAt sim.Time) *world {
		t.Helper()
		cal := sim.NewCalendar()
		w := &world{handed: map[string][]Handoff{}}
		firstTok := map[string]map[int]sim.Time{}
		newInst := func(name string, prefillOnly bool) *Instance {
			c := cfg
			firstTok[name] = map[int]sim.Time{}
			c.Observer = func(e Event) {
				if e.Type == EventFirstToken {
					firstTok[name][e.RequestID] = e.Time
				}
			}
			in, err := NewInstance(name, c, cal)
			if err != nil {
				t.Fatal(err)
			}
			if prefillOnly {
				in.SetHandoff(func(now sim.Time, h Handoff) {
					w.handed[name] = append(w.handed[name], h)
					if ft, ok := firstTok[name][h.Req.ID]; !ok || ft != now || h.FirstToken != now || !h.HasFirst {
						t.Errorf("%s: request %d handed off at %v, first token at %v (seen %v), anchor %v, has first %v",
							name, h.Req.ID, now, ft, ok, h.FirstToken, h.HasFirst)
					}
					if err := w.d.Resume(now, h); err != nil {
						t.Errorf("resume %d: %v", h.Req.ID, err)
					}
				})
			}
			return in
		}
		w.a, w.b, w.d = newInst("a", true), newInst("b", true), newInst("d", false)
		for i := range reqs {
			req := reqs[i]
			cal.Schedule(req.Arrival, func(now sim.Time) {
				if err := w.a.Accept(now, req); err != nil {
					t.Errorf("accept %d: %v", req.ID, err)
				}
			})
		}
		if killAt > 0 {
			cal.Schedule(killAt, func(now sim.Time) {
				if len(w.handed["a"]) != 0 || w.a.Running() == 0 {
					t.Errorf("kill at %v is not mid-prefill: %d handed off, %d running",
						now, len(w.handed["a"]), w.a.Running())
				}
				w.evicted = w.a.Kill(now)
				for _, h := range w.evicted {
					if err := w.b.AcceptRequeued(now, h); err != nil {
						t.Errorf("requeue %d: %v", h.Req.ID, err)
					}
				}
			})
		}
		cal.Run()
		for _, in := range []*Instance{w.a, w.b, w.d} {
			if err := in.Err(); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}

	// checkHandoffs asserts the multi-token requests hand off exactly
	// once, with resolved lengths and a one-token cache extent beyond
	// the prompt.
	checkHandoffs := func(hs []Handoff) {
		t.Helper()
		seen := map[int]int{}
		for _, h := range hs {
			seen[h.Req.ID]++
			want := resolved(reqs[h.Req.ID])
			if h.Req.PromptLen != want.PromptLen || h.Req.OutputLen != want.OutputLen {
				t.Errorf("request %d handed off with lengths %d/%d, want resolved %d/%d",
					h.Req.ID, h.Req.PromptLen, h.Req.OutputLen, want.PromptLen, want.OutputLen)
			}
			if h.Req.Arrival != want.Arrival {
				t.Errorf("request %d handed off with arrival %v, want %v", h.Req.ID, h.Req.Arrival, want.Arrival)
			}
			if h.Delivered != 1 || h.KVLen() != h.Req.PromptLen+1 {
				t.Errorf("request %d: delivered %d, KVLen %d, want 1 and prompt+1 = %d",
					h.Req.ID, h.Delivered, h.KVLen(), h.Req.PromptLen+1)
			}
		}
		for _, r := range reqs {
			want := 1
			if resolved(r).OutputLen == 1 {
				want = 0
			}
			if seen[r.ID] != want {
				t.Errorf("request %d handed off %d times, want %d", r.ID, seen[r.ID], want)
			}
		}
	}
	// checkSettled asserts every request completed exactly once across
	// the instances, with exactly one TTFT sample each.
	checkSettled := func(w *world) {
		t.Helper()
		var done, ttfts int
		for _, in := range []*Instance{w.a, w.b, w.d} {
			done += in.Stats().Completed
			tt, _, _ := in.Latencies()
			ttfts += len(tt)
		}
		if done != len(reqs) || ttfts != len(reqs) {
			t.Errorf("%d completions and %d TTFT samples across instances, want %d each", done, ttfts, len(reqs))
		}
		if tt, _, _ := w.d.Latencies(); len(tt) != 0 {
			t.Errorf("the resuming instance recorded %d TTFT samples, want none", len(tt))
		}
	}

	t.Run("handoff and resume", func(t *testing.T) {
		w := run(0)
		checkHandoffs(w.handed["a"])
		sa, sd := w.a.Stats(), w.d.Stats()
		if sa.Completed != 1 || sa.HandedOff != len(reqs)-1 {
			t.Errorf("prefill instance completed %d and handed off %d, want 1 and %d", sa.Completed, sa.HandedOff, len(reqs)-1)
		}
		if sd.Resumed != len(reqs)-1 || sd.Completed != len(reqs)-1 {
			t.Errorf("decode instance resumed %d and completed %d, want %d each", sd.Resumed, sd.Completed, len(reqs)-1)
		}
		checkSettled(w)
	})

	t.Run("kill mid-prefill then requeue", func(t *testing.T) {
		w := run(reqs[len(reqs)-1].Arrival + sim.Microsecond)
		if len(w.evicted) != len(reqs) {
			t.Fatalf("kill evicted %d requests, want all %d", len(w.evicted), len(reqs))
		}
		for _, h := range w.evicted {
			want := resolved(reqs[h.Req.ID])
			if h.HasFirst || h.Delivered != 0 || h.Req.PromptLen != want.PromptLen || h.Req.OutputLen != want.OutputLen {
				t.Errorf("eviction %d: has first %v, delivered %d, lengths %d/%d; want a fresh request with resolved lengths %d/%d",
					h.Req.ID, h.HasFirst, h.Delivered, h.Req.PromptLen, h.Req.OutputLen, want.PromptLen, want.OutputLen)
			}
		}
		if n := len(w.handed["a"]); n != 0 {
			t.Errorf("killed instance handed off %d requests", n)
		}
		checkHandoffs(w.handed["b"])
		sa, sb := w.a.Stats(), w.b.Stats()
		if sa.Killed != len(reqs) || sa.Completed != 0 {
			t.Errorf("killed instance: %d killed, %d completed", sa.Killed, sa.Completed)
		}
		if w.b.Routed() != len(reqs) || sb.HandedOff != len(reqs)-1 || sb.Completed != 1 {
			t.Errorf("requeue target: %d routed, %d handed off, %d completed", w.b.Routed(), sb.HandedOff, sb.Completed)
		}
		checkSettled(w)
	})
}
