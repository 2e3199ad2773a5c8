package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDotKnown(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpyAndScale(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	want = []float64{1.5, 2.5, 3.5}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Scale = %v, want %v", y, want)
		}
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{-3, 2, 1}); got != 3 {
		t.Fatalf("NormInf = %v", got)
	}
}

func TestAddSubClone(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	s := Add(a, b)
	if s[0] != 4 || s[1] != 7 {
		t.Fatalf("Add = %v", s)
	}
	d := Sub(b, a)
	if d[0] != 2 || d[1] != 3 {
		t.Fatalf("Sub = %v", d)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] == 99 {
		t.Fatal("Clone must not alias")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 2) != 2 || m.At(1, 1) != 3 {
		t.Fatal("Set/At broken")
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) == 100 {
		t.Fatal("Clone must not alias")
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestMulVecAndTMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [[1 2 3], [4 5 6]]
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
	z := m.TMulVec([]float64{1, 2})
	// [1+8, 2+10, 3+12]
	if z[0] != 9 || z[1] != 12 || z[2] != 15 {
		t.Fatalf("TMulVec = %v", z)
	}
}

func TestATWAUnweightedKnown(t *testing.T) {
	a := NewMatrix(3, 2)
	copy(a.Data, []float64{1, 0, 1, 1, 0, 2})
	g := ATWA(a, nil)
	// AᵀA = [[2,1],[1,5]]
	want := []float64{2, 1, 1, 5}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("ATWA = %v, want %v", g.Data, want)
		}
	}
}

func TestATWAWeighted(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	g := ATWA(a, []float64{2, 0})
	// Only row 0 contributes, weight 2: [[2,4],[4,8]]
	want := []float64{2, 4, 4, 8}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("ATWA weighted = %v, want %v", g.Data, want)
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{4, 2, 2, 3})
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	// L = [[2,0],[1,sqrt(2)]]
	if !almostEqual(l.At(0, 0), 2, 1e-12) || !almostEqual(l.At(1, 0), 1, 1e-12) ||
		!almostEqual(l.At(1, 1), math.Sqrt2, 1e-12) || l.At(0, 1) != 0 {
		t.Fatalf("Cholesky = %v", l.Data)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 2, 1}) // eigenvalues 3 and -1
	if _, err := Cholesky(m); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	r := NewMatrix(2, 3)
	if _, err := Cholesky(r); err == nil {
		t.Fatal("non-square must error")
	}
}

func TestSolveCholeskyKnown(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{4, 2, 2, 3})
	x, err := SolveCholesky(m, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Verify residual.
	r := m.MulVec(x)
	if !almostEqual(r[0], 10, 1e-10) || !almostEqual(r[1], 9, 1e-10) {
		t.Fatalf("residual %v", r)
	}
}

func TestSolveCholeskyBadRHS(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 0, 0, 1})
	if _, err := SolveCholesky(m, []float64{1}); err == nil {
		t.Fatal("rhs length mismatch must error")
	}
}

func TestSolveRidgeEscalation(t *testing.T) {
	// Singular matrix: solvable only after the ridge kicks in.
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 1, 1, 1})
	x, err := SolveRidge(m, []float64{2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With ridge, solution approaches [1, 1].
	if math.Abs(x[0]-x[1]) > 1e-6 {
		t.Fatalf("symmetric problem must give symmetric solution: %v", x)
	}
	if _, err := SolveRidge(m, []float64{1, 1}, -1); err == nil {
		t.Fatal("negative ridge must error")
	}
	// Does not modify the input matrix.
	if m.Data[0] != 1 || m.Data[3] != 1 {
		t.Fatal("SolveRidge mutated its input")
	}
}

// Property: solving a random SPD system reproduces the right-hand side.
func TestSolveCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		// Build A = BᵀB + I from pseudo-random B to guarantee SPD.
		n := 4
		b := NewMatrix(n+2, n)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>11))/float64(1<<52) - 0.5
		}
		for i := range b.Data {
			b.Data[i] = next()
		}
		a := ATWA(b, nil)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = next()
		}
		x, err := SolveCholesky(a, rhs)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		for i := range res {
			if !almostEqual(res[i], rhs[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		return Dot(a, b) == Dot(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
