package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestStudentTCDFAgainstKnown(t *testing.T) {
	// Reference values from R's pt().
	cases := []struct{ t, df, want float64 }{
		{0, 5, 0.5},
		{2.015048372669157, 5, 0.95},  // qt(0.95, 5)
		{-2.015048372669157, 5, 0.05}, // symmetry
		{1.812461122811676, 10, 0.95},
		{2.262157162740992, 9, 0.975},
	}
	for _, c := range cases {
		if got := StudentTCDF(c.t, c.df); !almostEqual(got, c.want, 1e-8) {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", c.t, c.df, got, c.want)
		}
	}
}

func TestStudentTCDFLargeDFApproachesNormal(t *testing.T) {
	for _, x := range []float64{-2, -0.5, 0, 1, 2.5} {
		tv := StudentTCDF(x, 1e6)
		nv := NormalCDF(x)
		if !almostEqual(tv, nv, 1e-5) {
			t.Errorf("t-CDF(df=1e6) at %v = %v, normal = %v", x, tv, nv)
		}
	}
}

func TestStudentTCDFPanicsOnBadDF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for df=0")
		}
	}()
	StudentTCDF(1, 0)
}

func TestLogisticBasics(t *testing.T) {
	if got := Logistic(0); got != 0.5 {
		t.Fatalf("Logistic(0) = %v", got)
	}
	if got := Logistic(1000); got != 1 {
		t.Fatalf("Logistic(1000) = %v, want 1", got)
	}
	if got := Logistic(-1000); got != 0 {
		t.Fatalf("Logistic(-1000) = %v, want 0", got)
	}
	// Symmetry: sigma(-x) = 1 - sigma(x).
	for _, x := range []float64{-3, -0.2, 0.7, 5} {
		if !almostEqual(Logistic(-x), 1-Logistic(x), 1e-15) {
			t.Errorf("symmetry violated at %v", x)
		}
	}
}

// Property: NormalCDF is monotone non-decreasing.
func TestNormalCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		a, b = math.Mod(a, 50), math.Mod(b, 50)
		if a > b {
			a, b = b, a
		}
		return NormalCDF(a) <= NormalCDF(b)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: StudentTCDF(t) + StudentTCDF(-t) == 1 (symmetry).
func TestStudentSymmetryProperty(t *testing.T) {
	f := func(x float64, dfRaw uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 30)
		df := float64(dfRaw%60) + 1
		s := StudentTCDF(x, df) + StudentTCDF(-x, df)
		return almostEqual(s, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
