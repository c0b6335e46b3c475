// Package metrics holds the streaming telemetry layer: an HDR-style
// log-bucketed histogram, the windowed fleet-timeline aggregator that
// turns the observer event stream into per-interval time series, and
// the simulator self-profiling report. Everything here is exact-count
// streaming state — no per-sample storage — so a 10M-request replay
// pays a fixed memory cost per window, not per request. Histograms are
// sparse: a window pays only for the value magnitudes its samples
// touch (one 32-bucket row per power of two), not for the whole int64
// range.
package metrics

import "math/bits"

// Histogram bucket layout (HDR-histogram style, 5 sub-bucket bits):
// values 0..31 land in exact unit buckets; beyond that, each power-of-2
// magnitude splits into 32 sub-buckets, so the relative quantization
// error is bounded by 1/32 (halved again by midpoint representatives).
// The bucket count covers all of int64, so Record never range-checks.
// Buckets are stored in rows of subBuckets, one row per magnitude
// (bucketIndex / subBuckets), allocated on first touch.
const (
	subBucketBits  = 5
	subBuckets     = 1 << subBucketBits // 32
	histBucketsLen = (64 - subBucketBits - 1 + 1) * subBuckets
	histRows       = histBucketsLen / subBuckets
)

// Histogram is a streaming log-bucketed histogram over non-negative
// int64 samples (virtual nanoseconds, token counts, ...). The zero
// value is ready to use. It answers count, exact mean and max, and
// nearest-rank quantiles within ~±1.6% relative error, without storing
// samples — and two histograms merge by adding their bucket counts, so
// per-instance and fleet-level views share one recording pass. Only
// touched rows are allocated; a nil row holds zero counts. A copied
// Histogram value shares its rows with the original; Merge into a zero
// value makes an independent copy.
type Histogram struct {
	rows  [histRows]*[subBuckets]uint64
	count uint64
	sum   int64
	max   int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - subBucketBits - 1
	return (exp+1)*subBuckets + int(uint64(v)>>uint(exp)) - subBuckets
}

// bucketValue is the bucket's representative: the exact value for unit
// buckets, the bucket midpoint otherwise (halving the worst-case
// quantization error).
func bucketValue(idx int) int64 {
	if idx < 2*subBuckets {
		return int64(idx)
	}
	exp := idx/subBuckets - 1
	mant := int64(idx%subBuckets + subBuckets)
	return mant<<uint(exp) + int64(1)<<uint(exp)/2
}

// Record adds one sample. Negative samples clamp to zero — latencies
// and counts are non-negative by construction, so a negative value is
// a caller bug this keeps visible (a spike at zero) rather than fatal.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	row := h.rows[idx/subBuckets]
	if row == nil {
		row = new([subBuckets]uint64)
		h.rows[idx/subBuckets] = row
	}
	row[idx%subBuckets]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact sample mean (0 when empty): the sum is
// tracked exactly alongside the buckets.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the exact largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the nearest-rank p-th percentile's bucket
// representative (p in (0,100]; 0 when empty) — the same rank
// definition as serve.Percentile, quantized to the bucket grid.
func (h *Histogram) Quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(float64(h.count) * p / 100)
	if float64(rank) < float64(h.count)*p/100 {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for r, row := range h.rows {
		if row == nil {
			continue
		}
		for i, c := range row {
			cum += c
			if cum >= rank {
				return bucketValue(r*subBuckets + i)
			}
		}
	}
	return h.max
}

// Merge adds other's samples into h. Count, sum, and max stay exact;
// bucket counts add element-wise over other's touched rows.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	for r, src := range other.rows {
		if src == nil {
			continue
		}
		dst := h.rows[r]
		if dst == nil {
			dst = new([subBuckets]uint64)
			h.rows[r] = dst
		}
		for i, c := range src {
			dst[i] += c
		}
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}
