package serve

import (
	"fmt"

	"github.com/skipsim/skip/internal/sim"
)

// A request moves between instances in two ways, both described by one
// Handoff record. A prefill-only instance (SetHandoff) stops every
// request the moment its prefill completes and hands it away to resume
// decoding elsewhere (Resume). A killed instance (Kill) evicts its
// in-flight requests for the fleet layer to recompute elsewhere
// (AcceptRequeued). The serving layer itself moves no bytes: pricing
// the KV transfer over the interconnect model is the disaggregation
// layer's job (internal/cluster), which receives finished prefills in
// the SetHandoff callback and decides where and when each resumes.

// Handoff is the state of a request leaving an instance: enough to
// continue it, with exact accounting, on any instance serving the same
// model.
type Handoff struct {
	// Req is the original request (arrival instant, session, IDs) with
	// its lengths resolved — the source instance's config fallbacks
	// already applied, so the receiving instance needs no defaults of
	// its own and its fit check is exact.
	Req Request
	// Delivered counts tokens already streamed to the user: the first
	// token for a finished prefill, the high-water mark for an evicted
	// request. They count once across the move.
	Delivered int64
	// FirstToken / HasFirst anchor TTFT accounting: a request whose
	// first token was already served must not record a second TTFT
	// sample. A finished prefill always has its first token.
	FirstToken sim.Time
	HasFirst   bool
}

// KVLen is a finished prefill's cache extent in token positions (prompt
// + tokens delivered) — what the transfer model prices.
func (h Handoff) KVLen() int64 { return h.Req.PromptLen + h.Delivered }

// SetHandoff makes the instance prefill-only: every request it serves
// queues, admits and prefills as usual, but the moment its first token
// is emitted the request leaves this instance (KV released) and fn
// receives its Handoff. fn runs inside the calendar event that
// completed the prefill, so it may route, schedule transfers, and
// resume the request elsewhere at calendar time. Requests that generate
// exactly one token never hand off — their single token completes them
// during prefill, and they settle here as ordinary completions. Call it
// once, before the instance receives work.
func (in *Instance) SetHandoff(fn func(now sim.Time, h Handoff)) { in.s.handoff = fn }

// Resume admits a finished prefill mid-stream: its transferred KV cache
// (prompt + tokens delivered on the prefill side) is reserved on
// admission and decoding continues from where the prefill instance
// stopped. The request joins the wait queue like any arrival but never
// abandons — its user is already streaming output. Resume must be
// called from inside a calendar event at the instant the KV transfer
// lands.
//
// A resumed request remains preemptible: if KV pressure later evicts
// it, the transferred cache is discarded and this instance recomputes
// the prompt locally (vLLM recompute-style) before decoding on — the
// cache is not re-requested from the prefill pool. Accounting stays
// exact (the TTFT anchor and already-delivered tokens count once), but
// a decode-pool instance under heavy preemption does perform prefill
// compute; keep decode pools sized so preemptions stay rare if strict
// phase isolation matters.
func (in *Instance) Resume(now sim.Time, h Handoff) error {
	// A draining instance still honors transfers already committed to it
	// — a drain must not strand a KV cache in flight — but a stopped one
	// is gone; the caller re-routes or drops.
	if in.s.state == StateStopped {
		return fmt.Errorf("serve: instance %s is stopped and cannot resume request %d", in.name, h.Req.ID)
	}
	if !in.Fits(h.Req) {
		return fmt.Errorf("serve: instance %s cannot ever fit resumed request %d (prompt %d + output %d tokens)",
			in.name, h.Req.ID, h.Req.PromptLen, h.Req.OutputLen)
	}
	in.s.resumed++
	in.s.arrive(now, in.s.newSlot(contRequest{
		req:        h.Req,
		promptDone: h.Req.PromptLen,
		generated:  h.Delivered,
		delivered:  h.Delivered,
		firstTok:   h.FirstToken,
		hasFirst:   true,
		resumed:    true,
	}))
	return nil
}
