package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/skipsim/skip/internal/sim"
)

// Workload generators: deterministic request streams with per-request
// prompt and output lengths matching serving scenarios — chat traffic,
// agentic multi-turn pipelines, and long-context summarization — plus
// arbitrary mixes. All randomness flows from one seeded source, so a
// (scenario, n, rate, seed) tuple always produces the identical stream.

// LengthDist is a clamped lognormal token-length distribution.
type LengthDist struct {
	// Mean is the distribution's arithmetic mean (tokens).
	Mean float64
	// Sigma is the lognormal shape parameter (0 degenerates to Mean).
	Sigma float64
	// Min and Max clamp samples (Max 0 means unclamped).
	Min, Max int64
}

// sample draws one length. The lognormal's mu is solved from the
// requested arithmetic mean: mean = exp(mu + sigma²/2).
func (d LengthDist) sample(rng *rand.Rand) int64 {
	if d.Mean <= 0 {
		return max(d.Min, 1)
	}
	v := d.Mean
	if d.Sigma > 0 {
		mu := math.Log(d.Mean) - float64(d.Sigma*d.Sigma/2)
		v = math.Exp(float64(rng.NormFloat64()*d.Sigma) + mu)
	}
	n := int64(v + 0.5)
	if n < d.Min {
		n = d.Min
	}
	if n < 1 {
		n = 1
	}
	if d.Max > 0 && n > d.Max {
		n = d.Max
	}
	return n
}

// Scenario names a workload shape.
type Scenario int

const (
	// ScenarioChat: conversational traffic — moderate prompts, moderate
	// generations (the interactive regime where TTFT and TPOT both
	// matter).
	ScenarioChat Scenario = iota
	// ScenarioAgentic: tool-calling agents — prompts that grow with the
	// turn index as context accumulates, short structured outputs, and
	// bursty arrivals (turns of one trajectory arrive back-to-back).
	ScenarioAgentic
	// ScenarioSummarize: long-context summarization — long prompts,
	// short outputs; prefill- and KV-capacity-dominated.
	ScenarioSummarize
	// ScenarioMixed: a production-style blend of the three.
	ScenarioMixed
)

func (s Scenario) String() string {
	switch s {
	case ScenarioChat:
		return "chat"
	case ScenarioAgentic:
		return "agentic"
	case ScenarioSummarize:
		return "summarize"
	case ScenarioMixed:
		return "mixed"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// ParseScenario maps a workload.scenario name to a Scenario.
func ParseScenario(name string) (Scenario, error) {
	switch name {
	case "chat":
		return ScenarioChat, nil
	case "agentic":
		return ScenarioAgentic, nil
	case "summarize", "summarization":
		return ScenarioSummarize, nil
	case "mixed", "mix":
		return ScenarioMixed, nil
	}
	return 0, fmt.Errorf("serve: unknown scenario %q (have chat|agentic|summarize|mixed)", name)
}

// Scenarios lists the generator presets in presentation order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioChat, ScenarioAgentic, ScenarioSummarize, ScenarioMixed}
}

// Workload parameterizes a request-stream generator.
type Workload struct {
	Scenario   Scenario
	N          int
	RatePerSec float64
	Seed       int64
	// Prompt / Output override the scenario's length presets when
	// non-zero-valued.
	Prompt, Output LengthDist
	// Turns is the agentic trajectory length (default 4).
	Turns int
	// ContextGrowth is the per-turn prompt growth in tokens for agentic
	// trajectories (default 256).
	ContextGrowth int64
}

// preset fills the scenario's default length distributions.
func (w *Workload) preset() (prompt, output LengthDist) {
	switch w.Scenario {
	case ScenarioAgentic:
		prompt = LengthDist{Mean: 512, Sigma: 0.4, Min: 64, Max: 4096}
		output = LengthDist{Mean: 48, Sigma: 0.5, Min: 4, Max: 256}
	case ScenarioSummarize:
		prompt = LengthDist{Mean: 3072, Sigma: 0.5, Min: 1024, Max: 8192}
		output = LengthDist{Mean: 96, Sigma: 0.4, Min: 16, Max: 512}
	default: // chat and the mixed base
		prompt = LengthDist{Mean: 384, Sigma: 0.8, Min: 16, Max: 4096}
		output = LengthDist{Mean: 128, Sigma: 0.7, Min: 8, Max: 1024}
	}
	if w.Prompt != (LengthDist{}) {
		prompt = w.Prompt
	}
	if w.Output != (LengthDist{}) {
		output = w.Output
	}
	return prompt, output
}

// Generate produces the workload's request stream, sorted by arrival.
func (w Workload) Generate() ([]Request, error) {
	if w.N <= 0 {
		return nil, fmt.Errorf("serve: workload needs a positive request count, got %d", w.N)
	}
	if w.RatePerSec <= 0 {
		return nil, fmt.Errorf("serve: workload needs a positive rate, got %g req/s", w.RatePerSec)
	}
	rng := rand.New(rand.NewSource(w.Seed))
	prompt, output := w.preset()

	var reqs []Request
	switch w.Scenario {
	case ScenarioAgentic:
		reqs = w.generateAgentic(rng, prompt, output)
	case ScenarioMixed:
		// A production blend: 60% chat, 25% agentic-style single turns
		// with grown context, 15% summarization. Caller overrides apply
		// to the chat slice (prompt and output come from the outer
		// preset, which honors them).
		agPrompt, agOutput := (&Workload{Scenario: ScenarioAgentic}).preset()
		suPrompt, suOutput := (&Workload{Scenario: ScenarioSummarize}).preset()
		var t float64
		for i := 0; i < w.N; i++ {
			t += rng.ExpFloat64() / w.RatePerSec
			r := Request{ID: i, Arrival: sim.Time(t * 1e9)}
			switch x := rng.Float64(); {
			case x < 0.60:
				r.PromptLen, r.OutputLen = prompt.sample(rng), output.sample(rng)
			case x < 0.85:
				r.PromptLen, r.OutputLen = agPrompt.sample(rng), agOutput.sample(rng)
			default:
				r.PromptLen, r.OutputLen = suPrompt.sample(rng), suOutput.sample(rng)
			}
			reqs = append(reqs, r)
		}
	default:
		var t float64
		for i := 0; i < w.N; i++ {
			t += rng.ExpFloat64() / w.RatePerSec
			reqs = append(reqs, Request{
				ID:        i,
				Arrival:   sim.Time(t * 1e9),
				PromptLen: prompt.sample(rng),
				OutputLen: output.sample(rng),
			})
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return reqs, nil
}

// generateAgentic emits multi-turn trajectories: each trajectory starts
// at a Poisson instant, then its turns follow back-to-back with short
// think-time gaps while the prompt grows with accumulated context.
func (w Workload) generateAgentic(rng *rand.Rand, prompt, output LengthDist) []Request {
	turns := w.Turns
	if turns <= 0 {
		turns = 4
	}
	growth := w.ContextGrowth
	if growth <= 0 {
		growth = 256
	}
	var reqs []Request
	var t float64
	id := 0
	session := int64(0)
	for id < w.N {
		// Trajectory starts are Poisson at rate/turns so the offered
		// request rate stays ≈ RatePerSec.
		t += rng.ExpFloat64() / (w.RatePerSec / float64(turns))
		turnAt := t
		base := prompt.sample(rng)
		session++ // 1-based: zero stays "no session"
		for k := 0; k < turns && id < w.N; k++ {
			reqs = append(reqs, Request{
				ID:        id,
				Arrival:   sim.Time(turnAt * 1e9),
				PromptLen: clampLen(base+int64(k)*growth, prompt.Max),
				OutputLen: output.sample(rng),
				SessionID: session,
			})
			id++
			// Tool-execution think time between turns: 50–250 ms.
			turnAt += 0.05 + float64(0.2*rng.Float64())
		}
	}
	return reqs
}

func clampLen(n, max int64) int64 {
	if max > 0 && n > max {
		return max
	}
	if n < 1 {
		return 1
	}
	return n
}
