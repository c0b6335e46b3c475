package serve

import (
	"math"
	"slices"

	"github.com/skipsim/skip/internal/sim"
)

// Percentile returns the nearest-rank p-th percentile of the samples
// (p in (0,100]): the smallest value such that at least p% of samples
// are ≤ it. The input need not be sorted; a zero-length input returns 0.
// Every report's percentiles (see SummarizeLatency) use this one
// definition, so policies are comparable rank-for-rank.
func Percentile(samples []sim.Time, p float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return percentileSorted(sorted, p)
}

// Percentiles returns the nearest-rank percentiles for every p in ps
// with a single copy-and-sort of the samples. A zero-length input
// returns all zeros.
func Percentiles(samples []sim.Time, ps ...float64) []sim.Time {
	out := make([]sim.Time, len(ps))
	if len(samples) == 0 {
		return out
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// percentileSorted is the nearest-rank lookup on an already-sorted
// sample slice: rank = ceil(p/100 × n), clamped to [1, n].
func percentileSorted(sorted []sim.Time, p float64) sim.Time {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(n) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Latency is the per-request latency block every serving and fleet
// report carries, in this field order.
type Latency struct {
	// TTFT: arrival → first output token.
	MeanTTFT, P50TTFT, P95TTFT, P99TTFT, MaxTTFT sim.Time
	// TPOT: mean inter-token time per request, aggregated (zero when no
	// request decodes more than one token).
	MeanTPOT, P50TPOT, P95TPOT sim.Time
	// E2E: arrival → final token.
	MeanE2E, P50E2E, P95E2E, MaxE2E sim.Time
}

// SummarizeLatency fills the latency block from raw per-request
// samples: nearest-rank percentiles, the mean and the maximum of each
// set, all 0 for an empty one. It sorts the slices in place.
func SummarizeLatency(ttfts, tpots, e2es []sim.Time) Latency {
	var mean [3]sim.Time
	for i, ts := range [][]sim.Time{ttfts, tpots, e2es} {
		slices.Sort(ts)
		var sum sim.Time
		for _, t := range ts {
			sum += t
		}
		if len(ts) > 0 {
			mean[i] = sum / sim.Time(len(ts))
		}
	}
	return Latency{
		MeanTTFT: mean[0],
		P50TTFT:  percentileSorted(ttfts, 50),
		P95TTFT:  percentileSorted(ttfts, 95),
		P99TTFT:  percentileSorted(ttfts, 99),
		MaxTTFT:  percentileSorted(ttfts, 100),
		MeanTPOT: mean[1],
		P50TPOT:  percentileSorted(tpots, 50),
		P95TPOT:  percentileSorted(tpots, 95),
		MeanE2E:  mean[2],
		P50E2E:   percentileSorted(e2es, 50),
		P95E2E:   percentileSorted(e2es, 95),
		MaxE2E:   percentileSorted(e2es, 100),
	}
}

// SLOGoodput computes the SLO block shared by the serving and cluster
// stats paths: the fraction of TTFT samples within slo and the
// corresponding goodput over the horizon. slo <= 0 means no SLO: full
// attainment, goodput == throughput. With an SLO configured but zero
// TTFT samples — a server that rejected, abandoned, or never finished
// everything — attainment and goodput are 0: serving nobody is total
// SLO failure, not vacuous perfection.
func SLOGoodput(ttfts []sim.Time, slo, horizon sim.Time, throughput float64) (attainment, goodput float64) {
	if slo <= 0 {
		return 1, throughput
	}
	if len(ttfts) == 0 {
		return 0, 0
	}
	met := 0
	for _, t := range ttfts {
		if t <= slo {
			met++
		}
	}
	attainment = float64(met) / float64(len(ttfts))
	if horizon > 0 {
		goodput = float64(met) / horizon.Seconds()
	}
	return attainment, goodput
}
