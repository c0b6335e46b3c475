package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/skipsim/skip/internal/sim"
)

// refTopK is the ranking Record used before top-k insertion: a stable
// sort of every candidate by Score, truncated to k.
func refTopK(alts []AltScore, k int) []AltScore {
	alts = slices.Clone(alts)
	sort.SliceStable(alts, func(i, j int) bool { return alts[i].Score < alts[j].Score })
	if len(alts) > k {
		alts = alts[:k]
	}
	return alts
}

// TestInsertTopKMatchesStableSort: feeding every candidate through
// insertTopK keeps exactly what a stable sort plus truncation keeps,
// over random scores with many ties, k = 1, k at and past the candidate
// count, and no candidates at all.
func TestInsertTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var top []AltScore
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(12)
		alts := make([]AltScore, n)
		for i := range alts {
			// Four distinct scores: ties everywhere. The name records the
			// arrival order, so a tie kept out of order shows.
			alts[i] = AltScore{Instance: fmt.Sprint(i), Outstanding: i, Score: float64(rng.Intn(4)) / 2}
		}
		for _, k := range []int{1, 2, 3, n, n + 2} {
			top = top[:0]
			for _, a := range alts {
				top = insertTopK(top, a, k)
			}
			if want := refTopK(alts, k); !slices.Equal(top, want) {
				t.Fatalf("trial %d, %d candidates, k=%d:\n got %v\nwant %v", trial, n, k, top, want)
			}
		}
	}
}

// TestRecordMatchesReference: every Record over a loaded pool keeps the
// alternatives the sort-based ranking kept, for every chosen instance,
// both scoring metrics and k from 1 past the pool size; each decision's
// alternatives are capped at their length, and a pick with no
// alternatives keeps none.
func TestRecordMatchesReference(t *testing.T) {
	pool, reqs := loadedPool(t)
	for _, policy := range []Policy{LeastQueue, LeastKV} {
		for _, k := range []int{1, 3, 79, 100} {
			r := NewDecisionRecorder(policy, 0, k)
			var want [][]AltScore
			for chosen := range pool {
				req := reqs[chosen%len(reqs)]
				var alts []AltScore
				for i, alt := range pool {
					if i == chosen || !alt.Accepting() || !alt.Fits(req) {
						continue
					}
					score := float64(alt.Outstanding())
					if policy == LeastKV {
						score = alt.KVPressure()
					}
					alts = append(alts, AltScore{Instance: alt.Name(), Outstanding: alt.Outstanding(),
						KVPressure: alt.KVPressure(), Score: score})
				}
				want = append(want, refTopK(alts, k))
				r.Record(sim.Time(chosen), req, pool, chosen, false, 0)
			}
			for i, d := range r.Stats().Decisions {
				if !slices.Equal(d.Alternatives, want[i]) || cap(d.Alternatives) != len(d.Alternatives) {
					t.Fatalf("%v k=%d pick %d: got %v (cap %d), want %v",
						policy, k, i, d.Alternatives, cap(d.Alternatives), want[i])
				}
			}
		}
	}
	r := NewDecisionRecorder(LeastQueue, 0, 3)
	r.Record(0, reqs[0], pool[:1], 0, false, 0)
	if d := r.Stats().Decisions[0]; d.Alternatives != nil {
		t.Fatalf("a pick with no alternatives kept %v", d.Alternatives)
	}
}

// warmRecord returns one Record of a least-queue pick with k = 3 over
// the loaded pool (see loadedPool), cycling through its requests and
// chosen instances. Every 4096 records the decision log is truncated in
// place, so a long benchmark keeps a bounded log.
func warmRecord(tb testing.TB) (record func()) {
	pool, reqs := loadedPool(tb)
	r := NewDecisionRecorder(LeastQueue, 0, 3)
	i := 0
	record = func() {
		if len(r.decisions) == 4096 {
			r.decisions = r.decisions[:0]
		}
		r.Record(sim.Time(i), reqs[i%len(reqs)], pool, i%len(pool), false, 0)
		i++
	}
	for j := 0; j < 4096; j++ {
		record()
	}
	return record
}

// BenchmarkDecisionRecord times one decision record: the counterfactual
// replays of the two other stateless policies, the alternatives'
// top-3 ranking over 79 candidates, and the slab copy (see warmRecord).
func BenchmarkDecisionRecord(b *testing.B) {
	record := warmRecord(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}
