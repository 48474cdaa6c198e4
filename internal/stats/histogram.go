package stats

import (
	"fmt"
	"sort"
)

// Histogram is a fixed-bucket histogram over float64 observations, used by
// the lifecycle drift monitor for duration distributions.
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	min, max float64
	width    float64
	counts   []int
	under    int
	over     int
}

// NewHistogram builds a histogram with n equal-width buckets over [min, max).
// It returns an error for invalid bounds or a non-positive bucket count.
func NewHistogram(min, max float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs >= 1 bucket, got %d", n)
	}
	if !(min < max) {
		return nil, fmt.Errorf("stats: histogram bounds [%v, %v) invalid", min, max)
	}
	return &Histogram{
		min:    min,
		max:    max,
		width:  (max - min) / float64(n),
		counts: make([]int, n),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.min:
		h.under++
	case x >= h.max:
		h.over++
	default:
		i := int((x - h.min) / h.width)
		if i >= len(h.counts) { // float edge case at the top boundary
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// CountsWithTails returns the per-bucket counts with the underflow count
// prepended and the overflow count appended — the fixed-length vector the
// two-sample distribution tests compare, where tail mass matters as much
// as in-range mass.
func (h *Histogram) CountsWithTails() []int {
	out := make([]int, 0, len(h.counts)+2)
	out = append(out, h.under)
	out = append(out, h.counts...)
	return append(out, h.over)
}

// Reset zeroes every bucket and tail count so the histogram can accumulate
// a fresh epoch with identical bucketing.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.under, h.over = 0, 0
}

// CumulativeShare reports, for counts sorted descending, the minimum number
// of items whose summed counts reach the given share (0 < share <= 1) of the
// grand total. This is the computation behind Figure 6 ("6 of 29 signatures
// account for 95% of tasks").
func CumulativeShare(counts []int, share float64) (items int, totalItems int) {
	if len(counts) == 0 || share <= 0 {
		return 0, len(counts)
	}
	sorted := make([]int, len(counts))
	copy(sorted, counts)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var total int
	for _, c := range sorted {
		total += c
	}
	if total == 0 {
		return 0, len(counts)
	}
	if share > 1 {
		share = 1
	}
	target := share * float64(total)
	var cum int
	for i, c := range sorted {
		cum += c
		if float64(cum) >= target {
			return i + 1, len(counts)
		}
	}
	return len(counts), len(counts)
}
