package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	tests := []struct {
		z, want, tol float64
	}{
		{0, 0.5, 1e-12},
		{1, 0.8413447460685429, 1e-10},
		{-1, 0.15865525393145705, 1e-10},
		{1.959963984540054, 0.975, 1e-9},
		{3.090232306167813, 0.999, 1e-9}, // the paper's alpha = 0.001 one-sided critical value
		{-8, 6.22e-16, 1e-15},
	}
	for _, tt := range tests {
		if got := NormalCDF(tt.z); !almostEqual(got, tt.want, tt.tol) {
			t.Errorf("NormalCDF(%v) = %v, want %v", tt.z, got, tt.want)
		}
	}
}

func TestRegularizedIncompleteBeta(t *testing.T) {
	tests := []struct {
		a, b, x, want, tol float64
	}{
		{1, 1, 0.3, 0.3, 1e-12},      // I_x(1,1) = x
		{2, 2, 0.5, 0.5, 1e-12},      // symmetric
		{2, 1, 0.5, 0.25, 1e-12},     // I_x(2,1) = x^2
		{1, 2, 0.5, 0.75, 1e-12},     // 1-(1-x)^2
		{5, 3, 0.7, 0.6470695, 1e-7}, // binomial-sum identity: sum_{j=5}^{7} C(7,j) 0.7^j 0.3^{7-j}
		{0.5, 0.5, 0.5, 0.5, 1e-10},  // arcsine distribution median
		{10, 10, 0.5, 0.5, 1e-10},    // symmetric
	}
	for _, tt := range tests {
		if got := RegularizedIncompleteBeta(tt.a, tt.b, tt.x); !almostEqual(got, tt.want, tt.tol) {
			t.Errorf("I_%v(%v,%v) = %v, want %v", tt.x, tt.a, tt.b, got, tt.want)
		}
	}
	if got := RegularizedIncompleteBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := RegularizedIncompleteBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
	if got := RegularizedIncompleteBeta(-1, 3, 0.5); !math.IsNaN(got) {
		t.Errorf("invalid a gave %v, want NaN", got)
	}
}

// Property: I_x(a,b) is monotone non-decreasing in x and within [0,1].
func TestIncompleteBetaMonotoneProperty(t *testing.T) {
	f := func(a, b, x1, x2 float64) bool {
		a = 0.1 + math.Mod(math.Abs(a), 20)
		b = 0.1 + math.Mod(math.Abs(b), 20)
		x1 = math.Mod(math.Abs(x1), 1)
		x2 = math.Mod(math.Abs(x2), 1)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		v1 := RegularizedIncompleteBeta(a, b, x1)
		v2 := RegularizedIncompleteBeta(a, b, x2)
		return v1 >= -1e-12 && v2 <= 1+1e-12 && v1 <= v2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	tests := []struct {
		t0, df, want, tol float64
	}{
		{0, 5, 0.5, 1e-12},
		{1, 1, 0.75, 1e-9},                 // Cauchy: atan(1)/pi + 0.5
		{2.015048372669157, 5, 0.95, 1e-7}, // t_{0.95,5}
		{3.747, 4, 0.99, 1e-4},
		{-2.015048372669157, 5, 0.05, 1e-7},
	}
	for _, tt := range tests {
		if got := StudentTCDF(tt.t0, tt.df); !almostEqual(got, tt.want, tt.tol) {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", tt.t0, tt.df, got, tt.want)
		}
	}
}

func TestStudentTCDFConvergesToNormal(t *testing.T) {
	for _, z := range []float64{-3, -1, 0, 0.5, 2, 3.09} {
		tv := StudentTCDF(z, 1e6)
		nv := NormalCDF(z)
		if !almostEqual(tv, nv, 1e-5) {
			t.Errorf("t(df=1e6) at %v = %v, normal = %v", z, tv, nv)
		}
	}
}

func TestStudentTCDFEdges(t *testing.T) {
	if !math.IsNaN(StudentTCDF(1, 0)) {
		t.Error("df=0 not NaN")
	}
	if got := StudentTCDF(math.Inf(1), 3); got != 1 {
		t.Errorf("CDF(+Inf) = %v", got)
	}
	if got := StudentTCDF(math.Inf(-1), 3); got != 0 {
		t.Errorf("CDF(-Inf) = %v", got)
	}
}

// Property: Student-t CDF is symmetric: F(-t) = 1 - F(t).
func TestStudentTSymmetryProperty(t *testing.T) {
	f := func(t0, df float64) bool {
		t0 = math.Mod(t0, 50)
		df = 0.5 + math.Mod(math.Abs(df), 100)
		if math.IsNaN(t0) {
			return true
		}
		return almostEqual(StudentTCDF(-t0, df), 1-StudentTCDF(t0, df), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
