package stats

import (
	"fmt"
	"math"
)

// NormalCDF returns the standard normal cumulative distribution function at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the inverse of the standard normal CDF.
// It uses the Acklam rational approximation refined with one Halley step,
// giving ~1e-15 relative accuracy over (0, 1). It panics for p outside (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: NormalQuantile p=%v out of (0,1)", p))
	}
	// Coefficients for the central and tail regions (Acklam 2003).
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// LogGamma returns the natural log of the absolute value of the gamma
// function, delegating to the standard library but discarding the sign,
// which is always +1 for the positive arguments used in this repository.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// regularizedIncompleteBeta computes I_x(a, b) via the continued-fraction
// expansion (Numerical Recipes betacf), which converges for all 0<=x<=1.
func regularizedIncompleteBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := LogGamma(a+b) - LogGamma(a) - LogGamma(b) +
		a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
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
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
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

// StudentTCDF returns P(T <= t) for a Student t distribution with df degrees
// of freedom. It panics for df <= 0.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		panic(fmt.Sprintf("stats: StudentTCDF df=%v <= 0", df))
	}
	x := df / (df + t*t)
	p := 0.5 * regularizedIncompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// WeibullCDF returns the CDF of a Weibull(shape k, scale lambda) at t.
// Negative times return 0.
func WeibullCDF(t, shape, scale float64) float64 {
	if t <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(t/scale, shape))
}

// WeibullHazard returns the hazard rate h(t) = k/lambda * (t/lambda)^(k-1)
// of a Weibull(shape, scale) distribution. For shape < 1 the hazard diverges
// at t=0; callers clamp t to a small positive value.
func WeibullHazard(t, shape, scale float64) float64 {
	if t <= 0 {
		t = 1e-9
	}
	return shape / scale * math.Pow(t/scale, shape-1)
}

// ExpCDF returns the CDF of an exponential distribution with the given rate.
func ExpCDF(t, rate float64) float64 {
	if t <= 0 {
		return 0
	}
	return 1 - math.Exp(-rate*t)
}

// Logistic returns the standard logistic sigmoid 1/(1+exp(-x)), computed in
// a numerically stable branch-free-enough way.
func Logistic(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Log1pExp returns log(1+exp(x)) without overflow for large x.
func Log1pExp(x float64) float64 {
	if x > 35 {
		return x
	}
	if x < -35 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}
