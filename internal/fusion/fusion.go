// Package fusion implements the paper's proximity-score kernel-fusion
// recommendation method (§III-C): mine deterministic kernel chains from
// runtime traces, score them by how reliably a chain follows its leading
// kernel (Eq. 6), select non-overlapping deterministic chains, and
// compute the idealized launch-tax savings of fusing them (Eqs. 7-8).
//
// Unlike domain-specific fusion (FlashAttention) or whole-graph capture
// (torch.compile), the method needs no pre-specification: determinism is
// discovered from the executed kernel sequence, where per-layer structure
// makes shape-specialized kernels recur in fixed order.
package fusion

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"github.com/skipsim/skip/internal/trace"
)

// KernelSequence extracts the kernel-name execution sequence from a
// trace, in device execution order (the timed kernel sequences SKIP
// feeds the recommender). Memcpys are not kernels and are excluded.
func KernelSequence(tr *trace.Trace) []string {
	ks := tr.Kernels()
	names := make([]string, len(ks))
	for i := range ks {
		names[i] = ks[i].Name
	}
	return names
}

// Chain is one kernel chain candidate of a fixed length.
type Chain struct {
	// Kernels are the chain's kernel names, in order: a read-only
	// subslice of the analyzed sequence at the chain's first occurrence.
	Kernels []string
	// Frequency is f(C): how many windows of the sequence equal C.
	Frequency int
	// LeadFrequency is f(k_i): occurrences of the leading kernel.
	LeadFrequency int
	// Score is the proximity score PS(C) = f(C)/f(k_i) (Eq. 6): the
	// likelihood that executing the leading kernel continues into
	// exactly this chain. PS = 1 marks a deterministic pattern, the
	// ideal fusion candidate.
	Score float64
}

// Key renders the chain as a display string. Names that themselves
// contain "→" make it ambiguous; compare Kernels to tell chains apart.
func (c *Chain) Key() string { return strings.Join(c.Kernels, "→") }

// Deterministic reports whether the chain always follows its lead.
func (c *Chain) Deterministic() bool { return c.Score >= 1.0 }

// Analysis is the result of mining one sequence at one chain length —
// one cell of the paper's Fig. 7 heatmaps.
type Analysis struct {
	// Length is the chain length L.
	Length int
	// SequenceLen is the kernel count of the analyzed trace (K_eager
	// when the trace is an eager run — Fig. 7d).
	SequenceLen int
	// Chains are the distinct chains observed, with scores.
	Chains []Chain
	// UniqueChains = len(Chains) (Fig. 7a).
	UniqueChains int
	// TotalInstances is the summed frequency of all observed chains
	// (Fig. 7b).
	TotalInstances int
	// FusedChains is C_fused of Eq. 7: the number of distinct
	// deterministic (PS=1) chains selected by a greedy non-overlapping
	// left-to-right cover of the sequence (Fig. 7c).
	FusedChains int
	// KernelsAfterFusion is K_fused of Eq. 7:
	// K_eager − C_fused·(L−1).
	KernelsAfterFusion int
	// IdealSpeedup is Eq. 8: K_eager / K_fused — the theoretical
	// maximum from launch-count reduction alone, assuming constant
	// launch overhead per kernel and no other performance impact.
	IdealSpeedup float64
}

// Analyze mines a kernel sequence at chain length L.
func Analyze(seq []string, l int) (*Analysis, error) {
	a, _, err := intern(seq).analyze(l)
	return a, err
}

// sequence is a kernel sequence with every name interned to a dense
// int32 id, so windows compare as integer runs instead of joined
// strings.
type sequence struct {
	names []string
	ids   []int32
	// lead[id] is f(k_i): the occurrences of kernel id.
	lead []int
}

func intern(seq []string) *sequence {
	s := &sequence{names: seq, ids: make([]int32, len(seq))}
	index := make(map[string]int32)
	for i, name := range seq {
		id, ok := index[name]
		if !ok {
			id = int32(len(s.lead))
			index[name] = id
			s.lead = append(s.lead, 0)
		}
		s.ids[i] = id
		s.lead[id]++
	}
	return s
}

// analyze mines the sequence at chain length l. It also returns the
// class of every window (an index into the analysis' Chains), which
// InstancePositions walks.
func (s *sequence) analyze(l int) (*Analysis, []int32, error) {
	if l < 2 {
		return nil, nil, fmt.Errorf("fusion: chain length must be ≥ 2, got %d", l)
	}
	a := &Analysis{Length: l, SequenceLen: len(s.ids)}
	if len(s.ids) < l {
		// Chain longer than the program: nothing to fuse (the paper's
		// zero cells and the speedup plateau past K_eager).
		a.KernelsAfterFusion = len(s.ids)
		a.IdealSpeedup = 1
		return a, nil, nil
	}

	class, classes := s.windows(l)
	a.Chains = make([]Chain, len(classes))
	for c, wc := range classes {
		first := int(wc.first)
		lead := s.lead[s.ids[first]]
		a.Chains[c] = Chain{
			Kernels:       s.names[first : first+l : first+l],
			Frequency:     int(wc.freq),
			LeadFrequency: lead,
			Score:         float64(wc.freq) / float64(lead),
		}
		a.TotalInstances += int(wc.freq)
	}
	a.UniqueChains = len(a.Chains)

	// Greedy left-to-right non-overlapping cover with deterministic
	// chains; C_fused counts the distinct chains fused (Eq. 7 charges
	// one launch saving of L−1 per deterministic chain).
	fused := make([]bool, len(classes))
	for i := 0; i < len(class); {
		c := class[i]
		if a.Chains[c].Deterministic() && !fused[c] {
			fused[c] = true
			a.FusedChains++
			i += l
			continue
		}
		i++
	}

	a.KernelsAfterFusion = len(s.ids) - a.FusedChains*(l-1)
	if a.KernelsAfterFusion < 1 {
		a.KernelsAfterFusion = 1
	}
	a.IdealSpeedup = float64(len(s.ids)) / float64(a.KernelsAfterFusion)
	return a, class, nil
}

// windowClass is one distinct length-l window: where it first occurs,
// how often it occurs and its rolling hash.
type windowClass struct {
	first, freq int32
	hash        uint64
}

// hashBase is the rolling hash's multiplier (the 64-bit FNV prime).
const hashBase = 0x100000001b3

// windows partitions the sequence's length-l windows (l ≤ len) into
// exact classes: two windows share a class iff their kernels are equal.
// Classes are numbered in order of first occurrence. A rolling hash
// over the ids proposes a class through an open-addressing table, and
// every proposal is confirmed element by element, so a hash collision
// never merges distinct windows.
func (s *sequence) windows(l int) (class []int32, classes []windowClass) {
	ids := s.ids
	n := len(ids) - l + 1
	class = make([]int32, n)
	classes = make([]windowClass, 0, n)
	width := bits.Len(uint(2*n - 1)) // table of 2^width ≥ 2n slots
	mask := uint64(1)<<width - 1
	slots := make([]int32, 1<<width) // class id + 1; 0 is empty

	var h, pow uint64 = 0, 1
	for j := 0; j < l; j++ {
		h = h*hashBase + uint64(ids[j]) + 1
		if j > 0 {
			pow *= hashBase
		}
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			h = (h-(uint64(ids[i-1])+1)*pow)*hashBase + uint64(ids[i+l-1]) + 1
		}
		win := ids[i : i+l]
		slot := (h * 0x9e3779b97f4a7c15) >> (64 - width)
		for {
			c := slots[slot] - 1
			if c < 0 {
				c = int32(len(classes))
				classes = append(classes, windowClass{first: int32(i), hash: h})
				slots[slot] = c + 1
			} else if wc := classes[c]; wc.hash != h || !slices.Equal(win, ids[wc.first:int(wc.first)+l]) {
				slot = (slot + 1) & mask
				continue
			}
			class[i] = c
			classes[c].freq++
			break
		}
	}
	return class, classes
}

// Candidates returns the chains with PS ≥ threshold, the recommendation
// rule of §III-C (PS(C) ≥ T).
func (a *Analysis) Candidates(threshold float64) []Chain {
	var out []Chain
	for _, c := range a.Chains {
		if c.Score >= threshold {
			out = append(out, c)
		}
	}
	return out
}

// Report is a chain-length sweep over one trace — the full Fig. 7/8
// dataset for one (model, batch) cell.
type Report struct {
	SequenceLen int
	Rows        []Analysis
}

// Sweep analyzes the sequence at every chain length in lengths.
func Sweep(seq []string, lengths []int) (*Report, error) {
	r := &Report{SequenceLen: len(seq)}
	s := intern(seq)
	for _, l := range lengths {
		a, _, err := s.analyze(l)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, *a)
	}
	return r, nil
}

// StandardLengths are the paper's Fig. 7 chain lengths.
func StandardLengths() []int {
	return []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
}

// BestSpeedup returns the row with the highest ideal speedup.
func (r *Report) BestSpeedup() (Analysis, error) {
	if len(r.Rows) == 0 {
		return Analysis{}, fmt.Errorf("fusion: empty report")
	}
	best := r.Rows[0]
	for _, row := range r.Rows[1:] {
		if row.IdealSpeedup > best.IdealSpeedup {
			best = row
		}
	}
	return best, nil
}

// InstancePositions returns the start indices of a greedy left-to-right
// non-overlapping cover of the sequence by deterministic (PS=1) chains of
// length l — every fusable instance, not just distinct chains. This is
// the plan an applied fusion prototype executes (the paper implements
// recommendations only; instance-level application is our extension).
func InstancePositions(seq []string, l int) ([]int, error) {
	a, class, err := intern(seq).analyze(l)
	if err != nil {
		return nil, err
	}
	var positions []int
	for i := 0; i < len(class); {
		if a.Chains[class[i]].Deterministic() {
			positions = append(positions, i)
			i += l
			continue
		}
		i++
	}
	return positions, nil
}
