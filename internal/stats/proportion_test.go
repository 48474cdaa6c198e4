package stats

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestProportionZTestRejects(t *testing.T) {
	// Training outlier rate 1%; a window of 1000 tasks with 60 outliers is
	// wildly anomalous (z ~ 15.9) and must be rejected at alpha = 0.001.
	res, err := ProportionZTest(60, 1000, 0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Fatalf("not rejected: %v", res)
	}
	if res.Stat < 10 {
		t.Fatalf("z = %v, want > 10", res.Stat)
	}
}

func TestProportionZTestAcceptsAtBaseline(t *testing.T) {
	res, err := ProportionZTest(10, 1000, 0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Fatalf("rejected at exactly baseline rate: %v", res)
	}
	// Below baseline must also be accepted.
	res, err = ProportionZTest(2, 1000, 0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Fatalf("rejected below baseline: %v", res)
	}
}

func TestProportionZTestZeroBaseline(t *testing.T) {
	// p0 = 0: any outlier is significant (the "new signature" rule).
	res, err := ProportionZTest(1, 50, 0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject || !math.IsInf(res.Stat, 1) {
		t.Fatalf("zero-baseline with outlier: %v", res)
	}
	res, err = ProportionZTest(0, 50, 0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Fatalf("zero-baseline, zero outliers rejected: %v", res)
	}
}

func TestProportionZTestOneBaseline(t *testing.T) {
	res, err := ProportionZTest(50, 50, 1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Fatalf("p0=1 rejected: %v", res)
	}
}

func TestProportionZTestErrors(t *testing.T) {
	if _, err := ProportionZTest(1, 0, 0.5, 0.01); !errors.Is(err, ErrNoData) {
		t.Fatalf("n=0 err = %v", err)
	}
	if _, err := ProportionZTest(1, 10, -0.1, 0.01); !errors.Is(err, ErrBadProportion) {
		t.Fatalf("p0<0 err = %v", err)
	}
	if _, err := ProportionZTest(1, 10, 1.5, 0.01); !errors.Is(err, ErrBadProportion) {
		t.Fatalf("p0>1 err = %v", err)
	}
	if _, err := ProportionZTest(11, 10, 0.5, 0.01); err == nil {
		t.Fatal("successes > n accepted")
	}
	if _, err := ProportionZTest(-1, 10, 0.5, 0.01); err == nil {
		t.Fatal("negative successes accepted")
	}
}

func TestProportionTTestMoreConservative(t *testing.T) {
	// With a small window the t variant must have a p-value >= the z variant.
	zres, err := ProportionZTest(4, 20, 0.05, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := ProportionTTest(4, 20, 0.05, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if tres.PValue < zres.PValue {
		t.Fatalf("t p-value %v < z p-value %v", tres.PValue, zres.PValue)
	}
}

func TestProportionTTestLargeNAgreesWithZ(t *testing.T) {
	zres, err := ProportionZTest(150, 10000, 0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := ProportionTTest(150, 10000, 0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if zres.Reject != tres.Reject {
		t.Fatalf("large-n disagreement: z=%v t=%v", zres, tres)
	}
	if !almostEqual(zres.PValue, tres.PValue, 1e-4) {
		t.Fatalf("p-values diverge: %v vs %v", zres.PValue, tres.PValue)
	}
}

func TestProportionResultString(t *testing.T) {
	res, err := ProportionZTest(60, 1000, 0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "REJECT") {
		t.Fatalf("String() = %q, want REJECT marker", s)
	}
}

// Property: rejection is monotone in the number of successes.
func TestProportionMonotoneProperty(t *testing.T) {
	f := func(k uint8, n uint16, p0f uint16) bool {
		n2 := int(n%500) + 2
		k1 := int(k) % (n2 + 1)
		p0 := float64(p0f%99+1) / 100
		r1, err1 := ProportionZTest(k1, n2, p0, 0.001)
		if err1 != nil {
			return false
		}
		if k1 == n2 {
			return true
		}
		r2, err2 := ProportionZTest(k1+1, n2, p0, 0.001)
		if err2 != nil {
			return false
		}
		// More successes => p-value cannot increase.
		return r2.PValue <= r1.PValue+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKFoldIndices(t *testing.T) {
	folds := KFoldIndices(10, 3)
	if len(folds) != 3 {
		t.Fatalf("folds = %v", folds)
	}
	// Must partition [0, 10) exactly.
	covered := 0
	prevEnd := 0
	for _, f := range folds {
		if f[0] != prevEnd {
			t.Fatalf("gap/overlap in folds %v", folds)
		}
		covered += f[1] - f[0]
		prevEnd = f[1]
	}
	if covered != 10 || prevEnd != 10 {
		t.Fatalf("folds do not cover input: %v", folds)
	}
	// Sizes differ by at most one.
	if folds[0][1]-folds[0][0] != 4 {
		t.Fatalf("first fold size = %d, want 4", folds[0][1]-folds[0][0])
	}
}

func TestKFoldIndicesEdges(t *testing.T) {
	if got := KFoldIndices(0, 5); got != nil {
		t.Fatalf("n=0 gave %v", got)
	}
	if got := KFoldIndices(3, 10); len(got) != 3 {
		t.Fatalf("k>n gave %v", got)
	}
	if got := KFoldIndices(5, 0); len(got) != 1 {
		t.Fatalf("k=0 gave %v", got)
	}
}

// Property: KFoldIndices always partitions [0, n) exactly.
func TestKFoldPartitionProperty(t *testing.T) {
	f := func(n uint16, k uint8) bool {
		nn := int(n % 2000)
		kk := int(k % 20)
		folds := KFoldIndices(nn, kk)
		if nn == 0 {
			return folds == nil
		}
		prev := 0
		for _, fo := range folds {
			if fo[0] != prev || fo[1] < fo[0] {
				return false
			}
			prev = fo[1]
		}
		return prev == nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
