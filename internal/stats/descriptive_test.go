package stats

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// percentileSorted is the reference Percentile is held to: the definition
// read off a fully sorted copy, as Percentile computed it before it selected.
func percentileSorted(sorted []float64, p float64) float64 {
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Selection gives the sort's value exactly (==, no tolerance) on every
// shape that could trip a quickselect, and never writes to its input.
func TestPercentileEqualsSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"random", func(i, n int) float64 { return rng.ExpFloat64() * 1e6 }},
		{"ties", func(i, n int) float64 { return float64(rng.Intn(3)) }},
		{"constant", func(i, n int) float64 { return 7 }},
		{"sorted", func(i, n int) float64 { return float64(i) * 1.5 }},
		{"reversed", func(i, n int) float64 { return float64(n-i) * 1.5 }},
		{"sawtooth", func(i, n int) float64 { return float64(i % 17) }},
	}
	for _, shape := range shapes {
		name := shape.name
		for _, n := range []int{1, 2, 3, 4, 5, 101, 10000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.gen(i, n)
			}
			orig := append([]float64(nil), xs...)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, p := range []float64{0.1, 1, 25, 50, 99, 99.9} {
				got, err := Percentile(xs, p)
				if err != nil {
					t.Fatal(err)
				}
				if want := percentileSorted(sorted, p); got != want {
					t.Errorf("%s n=%d p=%v: Percentile = %v, sorted reference = %v", name, n, p, got, want)
				}
			}
			if !slices.Equal(xs, orig) {
				t.Fatalf("%s n=%d: input modified", name, n)
			}
		}
	}
}

// selectNth leaves the k-th order statistic at k with nothing larger before
// it and nothing smaller after it, for every k.
func TestSelectNthPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(1 + n/2))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		selectNth(xs, k)
		if xs[k] != sorted[k] {
			t.Fatalf("trial %d: xs[%d] = %v, want %v", trial, k, xs[k], sorted[k])
		}
		for i, x := range xs {
			if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
				t.Fatalf("trial %d: xs[%d] = %v on the wrong side of xs[%d] = %v", trial, i, x, k, xs[k])
			}
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

func TestCumulativeShare(t *testing.T) {
	// Fig. 6 style: a few heavy signatures dominate.
	counts := []int{9000, 500, 300, 100, 50, 30, 10, 5, 3, 2}
	items, total := CumulativeShare(counts, 0.95)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	// 9000+500 = 9500 -> 95.0% of 10000: exactly two items.
	if items != 2 {
		t.Fatalf("items = %d, want 2", items)
	}
	items, _ = CumulativeShare(counts, 1.0)
	if items != 10 {
		t.Fatalf("full share items = %d, want 10", items)
	}
	items, _ = CumulativeShare(counts, 2.0) // clamped to 1
	if items != 10 {
		t.Fatalf("clamped share items = %d", items)
	}
}

func TestCumulativeShareEdges(t *testing.T) {
	if items, total := CumulativeShare(nil, 0.5); items != 0 || total != 0 {
		t.Fatalf("nil input: %d/%d", items, total)
	}
	if items, _ := CumulativeShare([]int{0, 0}, 0.5); items != 0 {
		t.Fatalf("all-zero input: %d", items)
	}
	if items, _ := CumulativeShare([]int{5}, -1); items != 0 {
		t.Fatalf("non-positive share: %d", items)
	}
	// Unsorted input must be handled (function sorts internally).
	if items, _ := CumulativeShare([]int{1, 100, 1}, 0.9); items != 1 {
		t.Fatalf("unsorted input: %d, want 1", items)
	}
}

// Property: CumulativeShare is monotone in share and bounded by len(counts).
func TestCumulativeShareMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, s1, s2 uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		sh1 := float64(s1%101) / 100
		sh2 := float64(s2%101) / 100
		if sh1 > sh2 {
			sh1, sh2 = sh2, sh1
		}
		i1, n1 := CumulativeShare(counts, sh1)
		i2, n2 := CumulativeShare(counts, sh2)
		return i1 <= i2 && i2 <= len(counts) && n1 == len(counts) && n2 == len(counts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
