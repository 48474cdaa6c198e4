package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordBasic(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if !almostEqual(w.StdDev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", w.StdDev())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("zero value not neutral")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatalf("single obs: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
		{-5, 15},
		{150, 50},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	orig := append([]float64(nil), xs...)
	if _, err := Percentile(xs, 90); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("input mutated: %v != %v", xs, orig)
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, err1 := Percentile(xs, p1)
		v2, err2 := Percentile(xs, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		lo, hi := minFloat(xs), maxFloat(xs)
		return v1 <= v2 && v1 >= lo && v2 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewness(t *testing.T) {
	if _, err := Skewness([]float64{1, 2}); !errors.Is(err, ErrNoData) {
		t.Fatalf("short input err = %v", err)
	}
	sym, err := Skewness([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sym, 0, 1e-9) {
		t.Fatalf("symmetric skew = %v, want 0", sym)
	}
	right, err := Skewness([]float64{1, 1, 1, 1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if right <= 0 {
		t.Fatalf("right-tailed skew = %v, want > 0", right)
	}
	flat, err := Skewness([]float64{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if flat != 0 {
		t.Fatalf("constant data skew = %v, want 0", flat)
	}
}
