package fusion

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/skipsim/skip/internal/trace"
)

func TestKernelSequence(t *testing.T) {
	b := trace.NewBuilder()
	b.Launch("cudaLaunchKernel", 1, 0, 1, 1)
	b.Kernel("b_kernel", 7, 100, 10, 1, 0, 0)
	b.Launch("cudaLaunchKernel", 1, 5, 1, 2)
	b.Kernel("a_kernel", 7, 50, 10, 2, 0, 0)
	b.Launch("cudaMemcpyAsync", 1, 10, 1, 3)
	b.Memcpy("Memcpy HtoD", 7, 20, 10, 3, 100)
	seq := KernelSequence(b.Trace())
	// Execution order (by kernel start), memcpys excluded.
	if len(seq) != 2 || seq[0] != "a_kernel" || seq[1] != "b_kernel" {
		t.Errorf("seq = %v", seq)
	}
}

// TestKernelSequenceUnsortedTrace: a trace whose kernels were appended
// out of start order, and never sorted, still yields the execution
// order.
func TestKernelSequenceUnsortedTrace(t *testing.T) {
	tr := trace.New()
	tr.Append(trace.Event{Name: "c_kernel", Cat: trace.CatKernel, Ts: 30})
	tr.Append(trace.Event{Name: "op", Cat: trace.CatOperator, Ts: 0})
	tr.Append(trace.Event{Name: "d_kernel", Cat: trace.CatKernel, Ts: 40})
	tr.Append(trace.Event{Name: "a_kernel", Cat: trace.CatKernel, Ts: 10})
	tr.Append(trace.Event{Name: "b_kernel", Cat: trace.CatKernel, Ts: 10})
	seq := KernelSequence(tr)
	if want := []string{"a_kernel", "b_kernel", "c_kernel", "d_kernel"}; !slices.Equal(seq, want) {
		t.Errorf("seq = %v, want %v", seq, want)
	}
}

func TestAnalyzeSimplePattern(t *testing.T) {
	// A B C repeated 4 times: every bigram within the period is
	// deterministic (PS=1) including the wrap (C→A occurs 3 of 4 C's).
	var seq []string
	for i := 0; i < 4; i++ {
		seq = append(seq, "A", "B", "C")
	}
	a, err := Analyze(seq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.SequenceLen != 12 {
		t.Errorf("SequenceLen = %d", a.SequenceLen)
	}
	// Bigrams: AB(4), BC(4), CA(3) → 3 unique, 11 instances.
	if a.UniqueChains != 3 || a.TotalInstances != 11 {
		t.Errorf("unique=%d instances=%d, want 3/11", a.UniqueChains, a.TotalInstances)
	}
	// PS: AB = 4/4 = 1, BC = 4/4 = 1, CA = 3/4.
	scores := map[string]float64{}
	for _, c := range a.Chains {
		scores[c.Key()] = c.Score
	}
	if scores["A→B"] != 1.0 || scores["B→C"] != 1.0 {
		t.Errorf("AB/BC scores = %v", scores)
	}
	if s := scores["C→A"]; s < 0.74 || s > 0.76 {
		t.Errorf("CA score = %v, want 0.75", s)
	}
	// Greedy cover: AB fused at 0, BC fused at 4 (after AB covers 0-1,
	// position 2 is CA (not det), 3 is AB (already counted)...
	// C_fused counts distinct deterministic chains fused: AB and BC.
	if a.FusedChains != 2 {
		t.Errorf("FusedChains = %d, want 2", a.FusedChains)
	}
	// Eq. 7: K_fused = 12 − 2·1 = 10; Eq. 8: 12/10 = 1.2.
	if a.KernelsAfterFusion != 10 {
		t.Errorf("KernelsAfterFusion = %d, want 10", a.KernelsAfterFusion)
	}
	if a.IdealSpeedup < 1.19 || a.IdealSpeedup > 1.21 {
		t.Errorf("IdealSpeedup = %f, want 1.2", a.IdealSpeedup)
	}
}

func TestAnalyzeUniqueLeadLongChain(t *testing.T) {
	// A sequence with a unique head makes one long deterministic chain.
	seq := []string{"head"}
	for i := 0; i < 10; i++ {
		seq = append(seq, "x", "y")
	}
	a, err := Analyze(seq, 21)
	if err != nil {
		t.Fatal(err)
	}
	if a.FusedChains != 1 {
		t.Fatalf("FusedChains = %d, want 1 (the whole program from head)", a.FusedChains)
	}
	// Eq. 7: 21 − 1·20 = 1 → speedup 21.
	if a.KernelsAfterFusion != 1 || a.IdealSpeedup != 21 {
		t.Errorf("K_fused=%d speedup=%f", a.KernelsAfterFusion, a.IdealSpeedup)
	}
}

func TestAnalyzeChainLongerThanProgram(t *testing.T) {
	a, err := Analyze([]string{"a", "b", "c"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.UniqueChains != 0 || a.FusedChains != 0 {
		t.Errorf("over-long chain found candidates: %+v", a)
	}
	if a.IdealSpeedup != 1 {
		t.Errorf("speedup = %f, want 1 (plateau past K_eager)", a.IdealSpeedup)
	}
}

func TestAnalyzeRejectsShortLength(t *testing.T) {
	if _, err := Analyze([]string{"a"}, 1); err == nil {
		t.Error("L=1 should be rejected")
	}
}

func TestCandidatesThreshold(t *testing.T) {
	var seq []string
	for i := 0; i < 4; i++ {
		seq = append(seq, "A", "B", "C")
	}
	a, _ := Analyze(seq, 2)
	if got := len(a.Candidates(1.0)); got != 2 {
		t.Errorf("PS≥1 candidates = %d, want 2", got)
	}
	if got := len(a.Candidates(0.7)); got != 3 {
		t.Errorf("PS≥0.7 candidates = %d, want 3", got)
	}
	if got := len(a.Candidates(0.0)); got != a.UniqueChains {
		t.Errorf("PS≥0 candidates = %d, want all %d", got, a.UniqueChains)
	}
}

func TestSweepAndBestSpeedup(t *testing.T) {
	var seq []string
	seq = append(seq, "head")
	for i := 0; i < 50; i++ {
		seq = append(seq, "x", "y", "z")
	}
	r, err := Sweep(seq, StandardLengths())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(StandardLengths()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	best, err := r.BestSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	// Long chains anchored at the unique head give the best speedup.
	if best.Length < 32 {
		t.Errorf("best length = %d, want a long chain", best.Length)
	}
	if best.IdealSpeedup <= 1.5 {
		t.Errorf("best speedup = %f", best.IdealSpeedup)
	}
	if _, err := (&Report{}).BestSpeedup(); err == nil {
		t.Error("empty report should fail")
	}
}

func TestDeterministicFlag(t *testing.T) {
	c := Chain{Score: 1.0}
	if !c.Deterministic() {
		t.Error("PS=1 must be deterministic")
	}
	c.Score = 0.99
	if c.Deterministic() {
		t.Error("PS<1 must not be deterministic")
	}
}

// Properties over random sequences.
func TestAnalyzeProperties(t *testing.T) {
	f := func(seed int64, alpha uint8, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := int(alpha%6) + 2
		length := int(n%200) + 10
		seq := make([]string, length)
		for i := range seq {
			seq[i] = fmt.Sprintf("k%d", rng.Intn(alphabet))
		}
		for _, l := range []int{2, 4, 8} {
			a, err := Analyze(seq, l)
			if err != nil {
				return false
			}
			// Window accounting: total instances = N−L+1.
			if want := length - l + 1; want >= 0 && a.TotalInstances != want {
				return false
			}
			// PS ∈ (0, 1] for every chain.
			for _, c := range a.Chains {
				if c.Score <= 0 || c.Score > 1 {
					return false
				}
			}
			// Fusion never increases kernel count; speedup ≥ 1.
			if a.KernelsAfterFusion > length || a.IdealSpeedup < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A periodic trace (transformer-layer-like) must yield: many unique
// chains at short L, stabilizing counts, decreasing fused chains, and
// speedup growing with L — the Fig. 7/8 shape.
func TestLayeredSequenceShape(t *testing.T) {
	seq := layeredSequence(12)

	var prev *Analysis
	for _, l := range []int{2, 4, 8, 16, 32, 64} {
		a, err := Analyze(seq, l)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if a.TotalInstances > prev.TotalInstances {
				t.Errorf("L=%d: instances grew (%d → %d)", l, prev.TotalInstances, a.TotalInstances)
			}
			if a.FusedChains > prev.FusedChains {
				t.Errorf("L=%d: fused chains grew (%d → %d)", l, prev.FusedChains, a.FusedChains)
			}
			// Speedup may dip where L first exceeds the layer period
			// (chains crossing layer boundaries lose determinism) but
			// never drops below 1.
			if a.IdealSpeedup < 1 {
				t.Errorf("L=%d: speedup %f < 1", l, a.IdealSpeedup)
			}
		}
		prev = a
	}
	// At L=2 the per-layer structure yields many deterministic bigrams.
	a2, _ := Analyze(seq, 2)
	if a2.FusedChains < 8 {
		t.Errorf("L=2 fused chains = %d, want many (layer structure)", a2.FusedChains)
	}
	// Long chains: few non-overlapping deterministic chains, big payoff.
	a64, _ := Analyze(seq, 64)
	if a64.FusedChains < 1 {
		t.Error("L=64 should find at least one deterministic chain")
	}
	if a64.IdealSpeedup <= a2.IdealSpeedup {
		t.Errorf("long-chain speedup (%f) should beat short (%f)", a64.IdealSpeedup, a2.IdealSpeedup)
	}
}

func TestInstancePositions(t *testing.T) {
	// A B C repeated 4 times: (A,B) and (B,C) are deterministic; the
	// greedy instance cover fuses at 0 (AB), 3 (AB), 6 (AB), 9 (AB) —
	// each AB claim blocks the following BC overlap.
	var seq []string
	for i := 0; i < 4; i++ {
		seq = append(seq, "A", "B", "C")
	}
	pos, err := InstancePositions(seq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) < 4 {
		t.Fatalf("positions = %v, want ≥4 instances", pos)
	}
	// Non-overlap invariant.
	for i := 1; i < len(pos); i++ {
		if pos[i] < pos[i-1]+2 {
			t.Fatalf("overlapping positions: %v", pos)
		}
	}
	// Chain longer than the program: no instances, no error.
	pos, err = InstancePositions([]string{"a", "b"}, 8)
	if err != nil || len(pos) != 0 {
		t.Errorf("over-long chain: pos=%v err=%v", pos, err)
	}
	if _, err := InstancePositions(seq, 1); err == nil {
		t.Error("L=1 should be rejected")
	}
}

func TestInstancePositionsCoverMoreThanDistinctChains(t *testing.T) {
	// Layered structure: instance count ≥ distinct fused chain count —
	// the gap Eq. 7's accounting leaves on the table.
	var seq []string
	for layer := 0; layer < 12; layer++ {
		seq = append(seq, "ln", "qkv", "attn", "proj", "mlp1", "act", "mlp2", "add")
	}
	a, err := Analyze(seq, 4)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := InstancePositions(seq, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) < a.FusedChains {
		t.Errorf("instances (%d) must be ≥ distinct chains (%d)", len(pos), a.FusedChains)
	}
	if len(pos) <= a.FusedChains {
		t.Errorf("periodic sequence should yield many instances per chain: %d vs %d",
			len(pos), a.FusedChains)
	}
}
