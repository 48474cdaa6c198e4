package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadProportion is returned when a baseline proportion is outside [0, 1].
var ErrBadProportion = errors.New("stats: baseline proportion outside [0, 1]")

// ProportionTestResult reports the outcome of a one-sided proportion test of
// H0: p <= p0 against H1: p > p0.
type ProportionTestResult struct {
	// N is the number of trials in the sample.
	N int
	// Successes is the number of outlier observations in the sample.
	Successes int
	// P0 is the baseline (training) proportion under H0.
	P0 float64
	// PHat is Successes/N.
	PHat float64
	// Stat is the test statistic (z, or t for the Student variant).
	Stat float64
	// PValue is the one-sided p-value.
	PValue float64
	// Reject reports whether H0 was rejected at the configured significance.
	Reject bool
	// Alpha is the significance level the decision used.
	Alpha float64
}

// String implements fmt.Stringer with a compact report line.
func (r ProportionTestResult) String() string {
	verdict := "accept"
	if r.Reject {
		verdict = "REJECT"
	}
	return fmt.Sprintf("prop-test n=%d k=%d p0=%.4f phat=%.4f stat=%.3f p=%.2e alpha=%g: %s",
		r.N, r.Successes, r.P0, r.PHat, r.Stat, r.PValue, r.Alpha, verdict)
}

// ProportionZTest performs a one-sided one-proportion z-test of
// H0: p <= p0 vs H1: p > p0 at significance alpha.
//
// This is the test the paper's analyzer runs per window per stage
// (Section 3.3.3) with alpha = 0.001: an anomaly is declared when the
// observed proportion of outlier tasks is significantly above the proportion
// observed in training. When p0 is 0 the normal approximation degenerates;
// in that case H0 is rejected exactly when any outlier appears (matching the
// paper's "new signature" rule where anything above a zero baseline is
// significant).
func ProportionZTest(successes, n int, p0, alpha float64) (ProportionTestResult, error) {
	if n <= 0 {
		return ProportionTestResult{}, ErrNoData
	}
	if p0 < 0 || p0 > 1 {
		return ProportionTestResult{}, ErrBadProportion
	}
	if successes < 0 || successes > n {
		return ProportionTestResult{}, fmt.Errorf("stats: successes %d outside [0, %d]", successes, n)
	}
	res := ProportionTestResult{
		N:         n,
		Successes: successes,
		P0:        p0,
		PHat:      float64(successes) / float64(n),
		Alpha:     alpha,
	}
	if p0 == 0 {
		if successes > 0 {
			res.Stat = math.Inf(1)
			res.PValue = 0
			res.Reject = true
		} else {
			res.PValue = 1
		}
		return res, nil
	}
	if p0 == 1 {
		// p can never exceed 1; H0 is never rejected.
		res.PValue = 1
		return res, nil
	}
	se := math.Sqrt(p0 * (1 - p0) / float64(n))
	res.Stat = (res.PHat - p0) / se
	res.PValue = 1 - NormalCDF(res.Stat)
	res.Reject = res.PValue < alpha
	return res, nil
}

// ProportionTTest is the Student-t variant of ProportionZTest: identical
// statistic but compared against a t distribution with n-1 degrees of
// freedom, which is slightly more conservative for small windows. The paper
// describes its test as a t-test; for the window sizes in the evaluation the
// two variants agree.
func ProportionTTest(successes, n int, p0, alpha float64) (ProportionTestResult, error) {
	res, err := ProportionZTest(successes, n, p0, alpha)
	if err != nil {
		return res, err
	}
	if p0 == 0 || p0 == 1 {
		return res, nil
	}
	if n < 2 {
		// Zero degrees of freedom: a single-observation window can never
		// reject.
		res.PValue = 1
		res.Reject = false
		return res, nil
	}
	res.PValue = 1 - StudentTCDF(res.Stat, float64(n-1))
	res.Reject = res.PValue < alpha
	return res, nil
}

// KFoldIndices partitions [0, n) into k contiguous folds of near-equal size
// and returns, for each fold, the held-out index range [start, end). It is
// the partitioning used by the analyzer's cross-validation discard step
// (Section 3.3.2). k is clamped to [1, n].
func KFoldIndices(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	folds := make([][2]int, 0, k)
	base := n / k
	rem := n % k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		folds = append(folds, [2]int{start, start + size})
		start += size
	}
	return folds
}
