package cluster

import (
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// AltScore is one alternative the router considered but did not choose,
// scored under the active policy's own metric at decision time.
type AltScore struct {
	Instance    string
	Outstanding int
	KVPressure  float64
	// Score is the value the policy minimizes: KV pressure for
	// least-kv, outstanding requests for everything else.
	Score float64
}

// Decision is one routing decision record: where a request went, what
// the chosen instance looked like, and the top-k alternatives ranked
// under the same metric. Records are emitted in pick order, so for a
// fixed spec and seed the sequence is bit-identical across runs.
type Decision struct {
	Time      sim.Time
	RequestID int
	SessionID int64 `json:",omitempty"`
	// Requeue marks a crash-driven re-placement rather than a
	// front-door arrival.
	Requeue bool `json:",omitempty"`
	Chosen  string
	// Outstanding / KVPressure snapshot the chosen instance's load at
	// pick time, before the request lands on it.
	Outstanding int
	KVPressure  float64
	// LinkWait is the FIFO backlog on the chosen transfer link at pick
	// time (disaggregated decode picks only) — how long the shipped
	// cache will sit behind earlier transfers.
	LinkWait     sim.Time   `json:",omitempty"`
	Alternatives []AltScore `json:",omitempty"`
}

// CounterfactualStat replays one alternative policy over the same
// decision points: on how many picks would it have agreed with the
// active policy, and on how many would it have placed differently?
type CounterfactualStat struct {
	Policy   string
	Picks    int
	Agreed   int
	Differed int
}

// RoutingStats is the decision-record section of a cluster or disagg
// report, present only when counterfactual scoring was requested.
type RoutingStats struct {
	// Policy is the active routing policy the decisions came from.
	Policy string
	// K is the alternatives-per-decision cap that was requested.
	K int
	// Picks counts recorded decisions: initial placements plus crash
	// requeues (rejected and unroutable requests never reach a pick).
	Picks int
	// Counterfactuals scores the stateless policies (least-queue,
	// least-kv, platform-aware) against the recorded picks. Stateful
	// policies (round-robin, session-affinity) cannot be replayed
	// read-only and are excluded; the active policy is too.
	Counterfactuals []CounterfactualStat `json:",omitempty"`
	Decisions       []Decision           `json:",omitempty"`
}

// DecisionRecorder captures routing decisions and counterfactual
// replays for one router. It is strictly read-only over fleet state:
// Record must run at pick time — after the policy chose, before the
// instance accepts — so alternative scores see exactly the state the
// real decision saw.
type DecisionRecorder struct {
	policy      Policy
	shortPrompt int64
	k           int
	picks       int
	decisions   []Decision
	counter     map[Policy]*CounterfactualStat
	// top is the reused top-k scratch a pick ranks its alternatives in;
	// slab is the open chunk the kept alternatives are copied into, so
	// a pick allocates only when a chunk fills.
	top  []AltScore
	slab []AltScore
}

// altSlabChunk is the alternatives capacity of one slab chunk.
const altSlabChunk = 1024

// NewDecisionRecorder builds a recorder for the active policy. k caps
// the alternatives stored per decision; shortPrompt is the
// platform-aware regime boundary (≤ 0 takes defaultShortPrompt).
func NewDecisionRecorder(policy Policy, shortPrompt int64, k int) *DecisionRecorder {
	if shortPrompt <= 0 {
		shortPrompt = defaultShortPrompt
	}
	r := &DecisionRecorder{policy: policy, shortPrompt: shortPrompt, k: k,
		counter: make(map[Policy]*CounterfactualStat)}
	for _, p := range counterfactualPolicies {
		if p != policy {
			r.counter[p] = &CounterfactualStat{Policy: p.String()}
		}
	}
	return r
}

// counterfactualPolicies are the stateless policies a recorder can
// replay against a live fleet without mutating routing state.
var counterfactualPolicies = []Policy{LeastQueue, LeastKV, PlatformAware}

// Record logs one successful pick. chosen indexes instances; linkWait
// is zero except for disaggregated decode picks.
func (r *DecisionRecorder) Record(now sim.Time, req serve.Request, instances []*serve.Instance, chosen int, requeue bool, linkWait sim.Time) {
	r.picks++
	// Iterate the fixed policy list, not the counter map: the stats are
	// per-policy independent, but replaying in map order would still
	// interleave pickStateless calls nondeterministically.
	for _, p := range counterfactualPolicies {
		st, ok := r.counter[p]
		if !ok {
			continue
		}
		st.Picks++
		if pickStateless(p, req, instances, r.shortPrompt) == chosen {
			st.Agreed++
		} else {
			st.Differed++
		}
	}
	in := instances[chosen]
	d := Decision{
		Time: now, RequestID: req.ID, SessionID: req.SessionID,
		Requeue: requeue, Chosen: in.Name(),
		Outstanding: in.Outstanding(), KVPressure: in.KVPressure(),
		LinkWait: linkWait,
	}
	r.top = r.top[:0]
	for i, alt := range instances {
		if i == chosen || !alt.Accepting() || !alt.Fits(req) {
			continue
		}
		a := AltScore{
			Instance: alt.Name(), Outstanding: alt.Outstanding(),
			KVPressure: alt.KVPressure(),
		}
		a.Score = float64(a.Outstanding)
		if r.policy == LeastKV {
			a.Score = a.KVPressure
		}
		r.top = insertTopK(r.top, a, r.k)
	}
	d.Alternatives = r.keep(r.top)
	r.decisions = append(r.decisions, d)
}

// insertTopK inserts a into top, which holds at most k alternatives in
// ascending Score order with ties in insertion order. Fed every
// candidate in turn, it keeps exactly the first k of a stable sort by
// Score.
func insertTopK(top []AltScore, a AltScore, k int) []AltScore {
	i := len(top)
	for i > 0 && top[i-1].Score > a.Score {
		i--
	}
	if i >= k {
		return top
	}
	if len(top) < k {
		top = append(top, AltScore{})
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = a
	return top
}

// keep copies alts into the slab and returns the copy, capped at its
// length so an append to one decision's alternatives can never write
// into the next one's. No alternatives keep nil.
func (r *DecisionRecorder) keep(alts []AltScore) []AltScore {
	if len(alts) == 0 {
		return nil
	}
	if cap(r.slab)-len(r.slab) < len(alts) {
		r.slab = make([]AltScore, 0, max(altSlabChunk, len(alts)))
	}
	i := len(r.slab)
	r.slab = append(r.slab, alts...)
	return r.slab[i:len(r.slab):len(r.slab)]
}

// Stats assembles the routing section, counterfactuals in canonical
// policy order. Nil receivers (recording disabled) return nil, keeping
// reports bit-identical when the feature is off.
func (r *DecisionRecorder) Stats() *RoutingStats {
	if r == nil {
		return nil
	}
	rs := &RoutingStats{Policy: r.policy.String(), K: r.k, Picks: r.picks, Decisions: r.decisions}
	for _, p := range counterfactualPolicies {
		if st, ok := r.counter[p]; ok {
			rs.Counterfactuals = append(rs.Counterfactuals, *st)
		}
	}
	return rs
}
