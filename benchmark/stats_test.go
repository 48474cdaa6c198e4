package main

import (
	"math"
	"testing"
)

// ramp returns 1..n ascending.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTopPercentile(t *testing.T) {
	tests := []struct {
		name      string
		n         int
		wantP     float64
		wantValue float64
	}{
		// Ten samples must lie beyond the percentile's rank.
		{"ten samples support only the median", 10, 50, 5.5},
		{"nineteen still only the median", 19, 50, 10},
		{"twenty reach p50 by rank", 20, 50, 10},
		{"forty reach p75", 40, 75, 30},
		{"hundred reach p90", 100, 90, 90},
		{"two hundred reach p95", 200, 95, 190},
		{"thousand reach p99", 1000, 99, 990},
		{"1999 fall short of p99.5", 1999, 99, 1980},
		{"two thousand reach p99.5", 2000, 99.5, 1990},
		{"ten thousand reach p99.9", 10000, 99.9, 9990},
		{"hundred thousand reach p99.99", 100000, 99.99, 99990},
		{"a million reach p99.999", 1000000, 99.999, 999990},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, v := topPercentile(ramp(tc.n))
			if p != tc.wantP || v != tc.wantValue {
				t.Errorf("topPercentile(1..%d) = p%g %g, want p%g %g", tc.n, p, v, tc.wantP, tc.wantValue)
			}
			if beyond := tc.n - int(v); p != 50 && beyond < 10 {
				t.Errorf("only %d samples beyond p%g of %d", beyond, p, tc.n)
			}
		})
	}
	if p, v := topPercentile(nil); p != 0 || !math.IsNaN(v) {
		t.Errorf("topPercentile(nil) = p%g %g, want p0 NaN", p, v)
	}
}

func TestQuantileAndSpread(t *testing.T) {
	tests := []struct {
		name string
		v    []float64
		q    float64
		want float64
	}{
		{"median of odd", []float64{3, 1, 2}, 0.5, 2},
		{"median of even interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"first quartile", []float64{1, 2, 3, 4, 5}, 0.25, 2},
		{"maximum", []float64{1, 2, 3, 4, 5}, 1, 5},
		{"single", []float64{7}, 0.9, 7},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := quantile(sorted(tc.v), tc.q); got != tc.want {
				t.Errorf("quantile(%v, %g) = %g, want %g", tc.v, tc.q, got, tc.want)
			}
		})
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 2.0/3 {
		t.Errorf("spread(1..5) = %g, want %g", got, 2.0/3)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is a number")
	}
	if got := medianOrZero(nil); got != 0 {
		t.Errorf("medianOrZero(nil) = %g", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// A nested tree: self times add up to the root.
	nested := []span{
		{ID: 1, Name: "chunk", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "emit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "emit", Start: 50, End: 90},
		{ID: 4, Parent: 3, Name: "inner", Start: 60, End: 70},
	}
	self := selfTimes(nested)
	want := map[int64]int64{1: 40, 2: 20, 3: 30, 4: 10}
	var sum int64
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
		sum += self[id]
	}
	if sum != nested[0].duration() {
		t.Errorf("self times sum to %d, root lasts %d", sum, nested[0].duration())
	}

	// Children that overlap each other or outlive their parent take only
	// the part of the parent's interval they cover, once.
	ragged := []span{
		{ID: 1, Name: "emit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 20, End: 60},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 80},
		{ID: 4, Parent: 1, Name: "wire", Start: 100, End: 500},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 150},
	}
	if got := selfTimes(ragged)[1]; got != 30 {
		t.Errorf("self of a parent with ragged children = %d, want 30", got)
	}
}
