package stats

import "math"

// NormalCDF returns P(Z <= z) for a standard normal variate.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// lgamma returns log|Gamma(x)| without the sign bookkeeping of math.Lgamma.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegularizedIncompleteBeta computes I_x(a, b), the regularized incomplete
// beta function, via the continued-fraction expansion (Numerical Recipes
// betacf). It powers the Student-t CDF.
func RegularizedIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpMin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RegularizedGammaP computes P(a, x), the regularized lower incomplete
// gamma function, via the series expansion for x < a+1 and the continued
// fraction (modified Lentz) otherwise — the Numerical Recipes gammp split.
// It powers the chi-square CDF.
func RegularizedGammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a, x) by its power series (converges fast for
// x < a+1).
func gammaPSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
	)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lgamma(a))
}

// gammaQContinuedFraction evaluates Q(a, x) = 1 - P(a, x) by the continued
// fraction with the modified Lentz method (converges fast for x >= a+1).
func gammaQContinuedFraction(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
		fpMin   = 1e-300
	)
	b := x + 1 - a
	c := 1 / fpMin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = b + an/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-lgamma(a))
}

// ChiSquareCDF returns P(X <= x) for a chi-square variate with df degrees
// of freedom. For df <= 0 it returns NaN.
func ChiSquareCDF(x, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 0
	}
	return RegularizedGammaP(df/2, x/2)
}

// StudentTCDF returns P(T <= t) for a Student-t variate with df degrees of
// freedom. For df <= 0 it returns NaN; as df grows it converges to
// NormalCDF.
func StudentTCDF(t float64, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegularizedIncompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}
