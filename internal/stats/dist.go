package stats

import (
	"fmt"
	"math"
)

// NormalCDF returns the standard normal cumulative distribution function at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
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
