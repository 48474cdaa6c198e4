package stats

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 100} {
		h.Add(x)
	}
	// under:{-1}, [0,2):{0,1.9}, [2,4):{2}, [4,6):{5}, [8,10):{9.99}, over:{10,100}
	want := []int{1, 2, 1, 1, 0, 1, 2}
	if got := h.CountsWithTails(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("0 buckets accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewHistogram(10, 5, 3); err == nil {
		t.Fatal("inverted range accepted")
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
