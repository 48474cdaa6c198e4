package stats

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestChiSquareCDF(t *testing.T) {
	// Reference values from standard chi-square tables.
	cases := []struct {
		x, df, want float64
	}{
		{0, 1, 0},
		{3.841, 1, 0.95},
		{6.635, 1, 0.99},
		{5.991, 2, 0.95},
		{1.386, 2, 0.50}, // median of chi2(2) = 2 ln 2
		{11.070, 5, 0.95},
		{18.307, 10, 0.95},
		{124.342, 100, 0.95},
		{math.Inf(1), 3, 1},
	}
	for _, c := range cases {
		got := ChiSquareCDF(c.x, c.df)
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("ChiSquareCDF(%v, %v) = %v, want %v", c.x, c.df, got, c.want)
		}
	}
	if !math.IsNaN(ChiSquareCDF(1, 0)) {
		t.Error("df=0 should be NaN")
	}
	if !math.IsNaN(ChiSquareCDF(1, -3)) {
		t.Error("df<0 should be NaN")
	}
}

func TestRegularizedGammaP(t *testing.T) {
	// P(a, x) for integer a has the closed form 1 - e^-x sum x^k/k!.
	closed := func(a int, x float64) float64 {
		sum := 0.0
		term := 1.0
		for k := 0; k < a; k++ {
			if k > 0 {
				term *= x / float64(k)
			}
			sum += term
		}
		return 1 - math.Exp(-x)*sum
	}
	for _, a := range []int{1, 2, 5, 20} {
		for _, x := range []float64{0.1, 0.5, 1, 3, 10, 40} {
			got := RegularizedGammaP(float64(a), x)
			want := closed(a, x)
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("RegularizedGammaP(%d, %v) = %v, want %v", a, x, got, want)
			}
		}
	}
}

func TestChiSquareTwoSample(t *testing.T) {
	cases := []struct {
		name       string
		a, b       []int
		alpha      float64
		wantReject bool
		wantErr    error
	}{
		{
			name: "identical histograms accept",
			a:    []int{100, 200, 300, 200, 100},
			b:    []int{100, 200, 300, 200, 100},
			// Identical counts give chi2 = 0, p = 1.
			alpha: 0.05, wantReject: false,
		},
		{
			name:  "same distribution different sizes accept",
			a:     []int{100, 200, 300, 200, 100},
			b:     []int{50, 100, 150, 100, 50},
			alpha: 0.05, wantReject: false,
		},
		{
			name:  "shifted distribution rejects",
			a:     []int{500, 300, 100, 50, 10},
			b:     []int{10, 50, 100, 300, 500},
			alpha: 0.001, wantReject: true,
		},
		{
			name:  "heavier tail rejects",
			a:     []int{900, 80, 15, 4, 1},
			b:     []int{700, 80, 60, 80, 80},
			alpha: 0.001, wantReject: true,
		},
		{
			name:  "small noise accepts at strict alpha",
			a:     []int{480, 260, 140, 80, 40},
			b:     []int{470, 270, 145, 75, 40},
			alpha: 0.001, wantReject: false,
		},
		{
			name:  "sparse buckets pool without rejecting",
			a:     []int{1, 0, 1, 0, 1, 997},
			b:     []int{0, 1, 0, 1, 0, 998},
			alpha: 0.05, wantReject: false,
		},
		{
			name:    "bucket mismatch",
			a:       []int{1, 2},
			b:       []int{1, 2, 3},
			alpha:   0.05,
			wantErr: ErrBucketMismatch,
		},
		{
			name:    "empty side",
			a:       []int{0, 0, 0},
			b:       []int{1, 2, 3},
			alpha:   0.05,
			wantErr: ErrNoData,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := ChiSquareTwoSample(c.a, c.b, c.alpha)
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Reject != c.wantReject {
				t.Fatalf("Reject = %v (%s), want %v", res.Reject, res, c.wantReject)
			}
			if res.PValue < 0 || res.PValue > 1 {
				t.Fatalf("PValue = %v outside [0, 1]", res.PValue)
			}
		})
	}
}

func TestChiSquareTwoSampleNegativeCount(t *testing.T) {
	if _, err := ChiSquareTwoSample([]int{1, -2}, []int{1, 2}, 0.05); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestChiSquareTwoSampleOneMergedBucket(t *testing.T) {
	// Everything pools into a single bucket: no resolution, never reject.
	res, err := ChiSquareTwoSample([]int{2, 1}, []int{1, 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject || res.PValue != 1 {
		t.Fatalf("degenerate pooling rejected: %s", res)
	}
}

func TestTwoSampleResultString(t *testing.T) {
	res, err := ChiSquareTwoSample([]int{500, 300, 100}, []int{100, 300, 500}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "REJECT") {
		t.Fatalf("String() = %q", res.String())
	}
}

func TestHistogramTailsAndReset(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 5, 9.9, 10, 42} {
		h.Add(x)
	}
	wt := h.CountsWithTails()
	if len(wt) != 7 || wt[0] != 1 || wt[6] != 2 {
		t.Fatalf("CountsWithTails = %v", wt)
	}
	sum := 0
	for _, c := range wt {
		sum += c
	}
	if sum != 6 {
		t.Fatalf("tails sum %d, want all 6 observations", sum)
	}
	h.Reset()
	for _, c := range h.CountsWithTails() {
		if c != 0 {
			t.Fatal("Reset left counts behind")
		}
	}
}
