package stats

import (
	"fmt"
	"math"
	"sort"
)

// IntHistogram is an exact histogram over integer-valued observations —
// hop counts, per-query message totals, millisecond latencies. It needs
// no a-priori range and answers arbitrary quantiles exactly, at the cost
// of one map entry per distinct value (fine for the small discrete
// domains it is meant for).
type IntHistogram struct {
	counts map[int64]uint64
	total  uint64
}

// NewIntHistogram returns an empty histogram.
func NewIntHistogram() *IntHistogram {
	return &IntHistogram{counts: make(map[int64]uint64)}
}

// Add records one observation.
func (h *IntHistogram) Add(v int64) {
	h.counts[v]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *IntHistogram) Total() uint64 { return h.total }

// Merge folds every observation of other into h. Merging nil is a no-op.
func (h *IntHistogram) Merge(other *IntHistogram) {
	if other == nil {
		return
	}
	for v, c := range other.counts {
		h.counts[v] += c
		h.total += c
	}
}

// Min returns the smallest observation (0 when empty).
func (h *IntHistogram) Min() int64 {
	first := true
	var min int64
	for v := range h.counts {
		if first || v < min {
			min, first = v, false
		}
	}
	return min
}

// Max returns the largest observation (0 when empty).
func (h *IntHistogram) Max() int64 {
	var max int64
	first := true
	for v := range h.counts {
		if first || v > max {
			max, first = v, false
		}
	}
	return max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Quantile returns the p-th percentile (0 ≤ p ≤ 100) by nearest rank,
// consistent with Percentile. It returns 0 when the histogram is empty.
func (h *IntHistogram) Quantile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	values := make([]int64, 0, len(h.counts))
	for v := range h.counts {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	if p <= 0 {
		return values[0]
	}
	if p >= 100 {
		return values[len(values)-1]
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, v := range values {
		cum += h.counts[v]
		if cum >= rank {
			return v
		}
	}
	return values[len(values)-1]
}

// String renders the headline quantiles.
func (h *IntHistogram) String() string {
	return fmt.Sprintf("n=%d p50=%d p95=%d p99=%d max=%d",
		h.total, h.Quantile(50), h.Quantile(95), h.Quantile(99), h.Max())
}
