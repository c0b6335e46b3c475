package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// referenceAnalyze is the original string-key miner: one joined key per
// window, chains recovered by splitting the key. It is exact only for
// names without "→", which is all the fuzz alphabet produces.
func referenceAnalyze(seq []string, l int) (*Analysis, error) {
	if l < 2 {
		return nil, fmt.Errorf("fusion: chain length must be ≥ 2, got %d", l)
	}
	a := &Analysis{Length: l, SequenceLen: len(seq)}
	if len(seq) < l {
		a.KernelsAfterFusion = len(seq)
		a.IdealSpeedup = 1
		return a, nil
	}
	lead := make(map[string]int)
	for _, k := range seq {
		lead[k]++
	}
	windows := make(map[string]int)
	var order []string
	for i := 0; i+l <= len(seq); i++ {
		key := strings.Join(seq[i:i+l], "→")
		if _, seen := windows[key]; !seen {
			order = append(order, key)
		}
		windows[key]++
	}
	for _, key := range order {
		freq := windows[key]
		leadName := strings.SplitN(key, "→", 2)[0]
		a.Chains = append(a.Chains, Chain{
			Kernels:       strings.Split(key, "→"),
			Frequency:     freq,
			LeadFrequency: lead[leadName],
			Score:         float64(freq) / float64(lead[leadName]),
		})
		a.TotalInstances += freq
	}
	a.UniqueChains = len(a.Chains)
	det := make(map[string]bool)
	for _, c := range a.Chains {
		if c.Deterministic() {
			det[c.Key()] = true
		}
	}
	fusedSet := make(map[string]bool)
	for i := 0; i+l <= len(seq); {
		key := strings.Join(seq[i:i+l], "→")
		if det[key] && !fusedSet[key] {
			fusedSet[key] = true
			i += l
			continue
		}
		i++
	}
	a.FusedChains = len(fusedSet)
	a.KernelsAfterFusion = len(seq) - a.FusedChains*(l-1)
	if a.KernelsAfterFusion < 1 {
		a.KernelsAfterFusion = 1
	}
	a.IdealSpeedup = float64(len(seq)) / float64(a.KernelsAfterFusion)
	return a, nil
}

// referencePositions is the original InstancePositions over
// referenceAnalyze.
func referencePositions(seq []string, l int) []int {
	a, err := referenceAnalyze(seq, l)
	if err != nil {
		return nil
	}
	det := make(map[string]bool)
	for _, c := range a.Chains {
		if c.Deterministic() {
			det[c.Key()] = true
		}
	}
	var positions []int
	for i := 0; i+l <= len(seq); {
		if det[strings.Join(seq[i:i+l], "→")] {
			positions = append(positions, i)
			i += l
			continue
		}
		i++
	}
	return positions
}

// layeredSequence is a transformer-like kernel sequence: an embedding,
// layers repetitions of a 14-kernel block, and a head.
func layeredSequence(layers int) []string {
	seq := []string{"embed"}
	for layer := 0; layer < layers; layer++ {
		seq = append(seq, "ln1", "gemm_qkv", "split", "bmm_qk", "softmax",
			"bmm_av", "merge", "gemm_proj", "add1", "ln2", "gemm_fc",
			"gelu", "gemm_out", "add2")
	}
	return append(seq, "final_ln", "lm_head")
}

// fuzzSequence decodes fuzz input into a kernel sequence over an
// alphabet of alphabet%32+1 names, at most 96 long.
func fuzzSequence(data []byte, alphabet uint8) []string {
	if len(data) > 96 {
		data = data[:96]
	}
	k := int(alphabet)%32 + 1
	seq := make([]string, len(data))
	for i, b := range data {
		seq[i] = fmt.Sprintf("k%d", int(b)%k)
	}
	return seq
}

// FuzzAnalyzeMatchesReference: the interned miner and the instance
// planner agree with the string-key reference on every field, at every
// chain length from 2 to one past the sequence.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	layered := layeredSequence(5)
	ids := make(map[string]byte)
	data := make([]byte, len(layered))
	for i, name := range layered {
		if _, ok := ids[name]; !ok {
			ids[name] = byte(len(ids))
		}
		data[i] = ids[name]
	}
	f.Add(data, uint8(31))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		d := make([]byte, rng.Intn(40))
		for j := range d {
			d[j] = byte(rng.Intn(256))
		}
		f.Add(d, uint8(rng.Intn(4)))
	}
	f.Fuzz(func(t *testing.T, data []byte, alphabet uint8) {
		seq := fuzzSequence(data, alphabet)
		for l := 2; l <= len(seq)+1; l++ {
			want, _ := referenceAnalyze(seq, l)
			got, err := Analyze(seq, l)
			if err != nil {
				t.Fatalf("L=%d: %v", l, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seq %v L=%d:\n got %+v\nwant %+v", seq, l, got, want)
			}
			gotPos, err := InstancePositions(seq, l)
			if err != nil {
				t.Fatalf("L=%d: %v", l, err)
			}
			if wantPos := referencePositions(seq, l); !reflect.DeepEqual(gotPos, wantPos) {
				t.Fatalf("seq %v L=%d: positions %v, want %v", seq, l, gotPos, wantPos)
			}
		}
	})
}

// Kernel names containing the display separator must not change the
// mining: every chain keeps exactly L kernels and a finite score, and
// windows that join to the same string stay distinct chains.
func TestAnalyzeArrowNames(t *testing.T) {
	seqs := [][]string{
		{"a→b", "c", "a→b", "c"},
		{"a→b", "c", "a", "b→c", "a→b", "c"},
	}
	for _, seq := range seqs {
		for l := 2; l <= len(seq); l++ {
			a, err := Analyze(seq, l)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range a.Chains {
				if len(c.Kernels) != l {
					t.Errorf("%q L=%d: chain %q has %d kernels", seq, l, c.Kernels, len(c.Kernels))
				}
				if math.IsInf(c.Score, 0) || math.IsNaN(c.Score) || c.LeadFrequency < 1 {
					t.Errorf("%q L=%d: chain %q score %v, lead frequency %d", seq, l, c.Kernels, c.Score, c.LeadFrequency)
				}
			}
		}
	}
	// ["a→b","c"] and ["a","b→c"] both join to "a→b→c".
	a, err := Analyze(seqs[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	var found int
	for _, c := range a.Chains {
		if c.Key() == "a→b→c" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("found %d chains displaying as a→b→c, want 2 distinct", found)
	}
}
