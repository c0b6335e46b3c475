package cluster

import (
	"fmt"
	"strings"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
)

// Policy selects how the front-end router places requests on instances.
type Policy int

const (
	// RoundRobin cycles through the instances, skipping those the
	// request can never fit on — the baseline that ignores load and
	// platform asymmetry entirely.
	RoundRobin Policy = iota
	// LeastQueue sends each request to the instance with the fewest
	// outstanding (queued + running) requests, ties to the lowest
	// index.
	LeastQueue
	// LeastKV sends each request to the instance with the lowest
	// committed KV pressure — admitted occupancy plus the queue's
	// unadmitted prompt footprints, as a fraction of that instance's
	// budget. On a heterogeneous fleet this is capacity-aware where
	// LeastQueue is not: an instance with a small KV budget repels load
	// earlier (APEX-style placement by KV asymmetry).
	LeastKV
	// SessionAffinity pins every request of a session (agentic
	// trajectory, multi-turn chat) to the instance that served its
	// first turn, modeling KV-reuse locality; sessionless requests and
	// new sessions fall back to least-outstanding placement.
	SessionAffinity
	// PlatformAware routes by the paper's regime split: short-prompt,
	// latency-critical requests prefer coupled (GH200-class) instances
	// — whose BS=1 TTFT advantage is the paper's headline — while
	// long-context, throughput-oriented requests prefer loosely-coupled
	// discrete instances, keeping the coupled nodes' batches small.
	// Within the preferred group it places least-outstanding, falling
	// back to the other group when no preferred instance fits.
	PlatformAware
	// PrefixAffinity scores cached-block overlap at pick time: each
	// request goes to the accepting instance whose prefix cache already
	// holds the most of its leading prompt tokens (ties to the least
	// outstanding, then the lowest index). Unlike SessionAffinity's
	// static pin, it follows the cache state itself — evicted prefixes
	// release the attraction, and a session whose blocks spilled or
	// dropped re-balances like a fresh one. Requires instances with a
	// KV cache to do better than least-queue; without one every overlap
	// is zero and it degrades to exactly least-outstanding.
	PrefixAffinity
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastQueue:
		return "least-queue"
	case LeastKV:
		return "least-kv"
	case SessionAffinity:
		return "session-affinity"
	case PlatformAware:
		return "platform-aware"
	case PrefixAffinity:
		return "prefix-affinity"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a CLI name to a routing policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "round-robin", "rr":
		return RoundRobin, nil
	case "least-queue", "lq":
		return LeastQueue, nil
	case "least-kv", "kv":
		return LeastKV, nil
	case "session-affinity", "affinity":
		return SessionAffinity, nil
	case "platform-aware", "platform":
		return PlatformAware, nil
	case "prefix-affinity", "prefix":
		return PrefixAffinity, nil
	}
	// The valid-name list derives from Policies() so it can't drift
	// from the policies that actually exist.
	names := make([]string, 0, len(Policies()))
	for _, p := range Policies() {
		names = append(names, p.String())
	}
	return 0, fmt.Errorf("cluster: unknown routing policy %q (have %s)", name, strings.Join(names, "|"))
}

// Policies lists the routing policies in presentation order.
func Policies() []Policy {
	return []Policy{RoundRobin, LeastQueue, LeastKV, SessionAffinity, PlatformAware, PrefixAffinity}
}

// Router is the mutable routing state behind a fleet pool: the
// round-robin cursor and the session→instance pin table. All decisions
// are deterministic — ties break to the lowest instance index and the
// session table is only ever read by key, never iterated. The instance
// slice a pick sees may grow between calls (autoscale joins) and
// instances in it may have stopped accepting (drains, crashes); every
// policy filters on Accepting, so membership is effectively mutable
// without the slice ever reindexing.
type Router struct {
	policy      Policy
	shortPrompt int64
	next        int
	sessions    map[int64]int
	// repins counts session pins moved because their target instance
	// stopped accepting — the churn ledger's session-affinity entry.
	repins int
}

// NewRouter builds a router for the policy. shortPrompt is the
// platform-aware regime boundary (≤ 0 takes the 512-token default).
func NewRouter(policy Policy, shortPrompt int64) *Router {
	if shortPrompt <= 0 {
		shortPrompt = 512
	}
	return &Router{policy: policy, shortPrompt: shortPrompt, sessions: make(map[int64]int)}
}

// Pick returns the index of the instance the policy places the request
// on, or -1 when no instance can ever fit it (the caller counts it
// unroutable). Only instances where the request's lifetime KV
// footprint fits are considered. Picks may mutate routing state (the
// round-robin cursor, session pins).
func (r *Router) Pick(req serve.Request, instances []*serve.Instance) int {
	switch r.policy {
	case RoundRobin:
		n := len(instances)
		for k := 0; k < n; k++ {
			idx := (r.next + k) % n
			if instances[idx].Accepting() && instances[idx].Fits(req) {
				r.next = (idx + 1) % n
				return idx
			}
		}
		return -1
	case LeastKV:
		return leastBy(req, instances, func(in *serve.Instance) float64 { return in.KVPressure() })
	case SessionAffinity:
		if req.SessionID != 0 {
			if idx, ok := r.sessions[req.SessionID]; ok {
				if instances[idx].Accepting() && instances[idx].Fits(req) {
					return idx
				}
				// The pin target departed (drained, crashed) or cannot
				// fit this turn: fall back to the policy's secondary
				// choice and re-pin the session there, counting the move
				// when churn caused it.
				nidx := leastOutstanding(req, instances)
				if nidx >= 0 {
					r.sessions[req.SessionID] = nidx
					if !instances[idx].Accepting() {
						r.repins++
					}
				}
				return nidx
			}
			idx := leastOutstanding(req, instances)
			if idx >= 0 {
				r.sessions[req.SessionID] = idx
			}
			return idx
		}
		return leastOutstanding(req, instances)
	case PlatformAware:
		return pickPlatformAware(req, instances, r.shortPrompt)
	case PrefixAffinity:
		return pickPrefixAffinity(req, instances)
	default: // LeastQueue
		return leastOutstanding(req, instances)
	}
}

// pickPrefixAffinity is the stateless cached-overlap pick: maximize the
// instance's device-resident prefix tokens for this request, ties to
// the least outstanding, then the lowest index. The overlap query
// (Instance.CachedPrefixTokens) is strictly read-only, so
// counterfactual scoring could replay this pick without perturbing any
// cache. Sessionless requests — and cacheless fleets, where every
// overlap is zero — place exactly like least-queue.
func pickPrefixAffinity(req serve.Request, instances []*serve.Instance) int {
	best := -1
	var bestOverlap int64
	var bestOut int
	for i, in := range instances {
		if !in.Accepting() || !in.Fits(req) {
			continue
		}
		overlap := in.CachedPrefixTokens(req)
		out := in.Outstanding()
		if best < 0 || overlap > bestOverlap || (overlap == bestOverlap && out < bestOut) {
			best, bestOverlap, bestOut = i, overlap, out
		}
	}
	return best
}

// pickPlatformAware is the stateless regime-split pick, factored out so
// counterfactual scoring can replay it read-only against live fleet
// state without touching router internals.
func pickPlatformAware(req serve.Request, instances []*serve.Instance, shortPrompt int64) int {
	if req.PromptLen <= 0 {
		// Unknown length (the instance will fall back to its
		// configured Seq): no regime signal, balance neutrally.
		return leastOutstanding(req, instances)
	}
	wantCoupled := req.PromptLen <= shortPrompt
	if idx := leastBy(req, instances, func(in *serve.Instance) float64 {
		if coupled(in) != wantCoupled {
			return -1 // filtered
		}
		return float64(in.Outstanding())
	}); idx >= 0 {
		return idx
	}
	return leastOutstanding(req, instances)
}

func coupled(in *serve.Instance) bool {
	return in.Platform().Coupling != hw.LooselyCoupled
}

func leastOutstanding(req serve.Request, instances []*serve.Instance) int {
	return leastBy(req, instances, func(in *serve.Instance) float64 { return float64(in.Outstanding()) })
}

// leastBy returns the accepting, fitting instance minimizing score,
// ties to the lowest index; a negative score excludes the instance.
// Returns -1 when nothing qualifies.
func leastBy(req serve.Request, instances []*serve.Instance, score func(*serve.Instance) float64) int {
	best, bestScore := -1, 0.0
	for i, in := range instances {
		if !in.Accepting() || !in.Fits(req) {
			continue
		}
		s := score(in)
		if s < 0 {
			continue
		}
		if best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}
