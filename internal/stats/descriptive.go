// Package stats implements the statistical primitives SAAD's analyzer is
// built on: streaming moments, percentiles, the normal and Student-t
// distributions, one-proportion hypothesis tests, and k-fold partitioning.
//
// The paper's analyzer (Section 3.3, 4.2) deliberately restricts training to
// "counting and computing percentiles" and runtime detection to hash-map
// lookups, float comparisons and t-tests; this package provides exactly those
// pieces with no external dependencies.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by operations that need at least one observation.
var ErrNoData = errors.New("stats: no data")

// Welford accumulates count, mean and variance in one pass using Welford's
// online algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the running mean (0 with no data).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs is not modified. Only the two
// order statistics the interpolation reads are selected, on a private copy;
// the result is the one a full sort gives.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if p <= 0 {
		return minFloat(xs), nil
	}
	if p >= 100 {
		return maxFloat(xs), nil
	}
	work := make([]float64, len(xs))
	copy(work, xs)
	rank := p / 100 * float64(len(work)-1)
	lo := int(math.Floor(rank))
	selectNth(work, lo)
	frac := rank - float64(lo)
	if frac == 0 {
		return work[lo], nil
	}
	// Everything after lo is no smaller, so the next order statistic is the
	// least of it (rank is fractional and at most len-1, so lo+1 exists).
	return work[lo]*(1-frac) + minFloat(work[lo+1:])*frac, nil
}

// selectNth reorders xs so that xs[k] is its k-th order statistic, nothing
// before it is larger and nothing after it is smaller: Hoare's quickselect
// on the middle element, linear on average. xs must hold no NaN.
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] <= pivot <= xs[i..hi], and anything between j and i
		// equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

func minFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
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

// Skewness returns the adjusted Fisher-Pearson sample skewness of xs. The
// analyzer uses it to report how skewed a signature's duration distribution
// is (the paper notes heavily non-skewed flows make percentile thresholds
// meaningless, motivating the k-fold discard).
func Skewness(xs []float64) (float64, error) {
	n := float64(len(xs))
	if len(xs) < 3 {
		return 0, ErrNoData
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	sd := w.StdDev()
	if sd == 0 {
		return 0, nil
	}
	var m3 float64
	for _, x := range xs {
		d := (x - w.Mean()) / sd
		m3 += d * d * d
	}
	return n / ((n - 1) * (n - 2)) * m3, nil
}
