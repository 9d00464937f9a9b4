package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set failed")
	}
	c := m.Clone()
	c.Set(0, 0, 1)
	if m.At(0, 0) != 9 {
		t.Error("Clone is not independent")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T dims = %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := m.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2")
	}
	s := Sub([]float64{5, 5}, []float64{2, 3})
	if s[0] != 3 || s[1] != 2 {
		t.Error("Sub")
	}
}

func TestQRSolvesExactSystem(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 2}, {1, 1}})
	truth := []float64{3, -2}
	b := a.MulVec(truth)
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := qr.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if !almost(x[i], truth[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], truth[i])
		}
	}
}

func TestQRRejectsWideMatrix(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 3)); err == nil {
		t.Error("QR of wide matrix should fail")
	}
}

func TestQRSingularColumn(t *testing.T) {
	a := NewMatrix(3, 2) // second column all zeros
	a.Set(0, 0, 1)
	a.Set(1, 0, 2)
	a.Set(2, 0, 3)
	if _, err := NewQR(a); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// TestWLSRecoversPlantedCoefficients is the core property: for random
// full-rank binary designs with positive weights and noiseless observations,
// WLS recovers the planted coefficient vector exactly (up to numerics).
func TestWLSRecoversPlantedCoefficients(t *testing.T) {
	rng := sim.NewRNG(77)
	f := func() bool {
		rows, cols := 12, 4
		x := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols-1; j++ {
				if rng.Float64() < 0.5 {
					x.Set(i, j, 1)
				}
			}
			x.Set(i, cols-1, 1) // constant
		}
		truth := make([]float64, cols)
		for j := range truth {
			truth[j] = 1 + 10*rng.Float64()
		}
		y := x.MulVec(truth)
		w := make([]float64, rows)
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		res, err := WLS(x, y, w)
		if err != nil {
			// Random designs may be rank-deficient; skip those draws.
			return err == ErrSingular
		}
		for j := range truth {
			if !almost(res.Coef[j], truth[j], 1e-6) {
				return false
			}
		}
		return res.RelErr < 1e-9
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatalf("recovery failed on draw %d", i)
		}
	}
}

func TestWLSWeightsDownweightNoisyRows(t *testing.T) {
	// Two coefficients; one heavily corrupted observation. With the
	// corrupted row's weight near zero, recovery should be clean.
	x := FromRows([][]float64{{1, 1}, {0, 1}, {1, 1}, {0, 1}, {1, 1}})
	truth := []float64{2, 1}
	y := x.MulVec(truth)
	y[4] += 100 // corrupt
	wGood := []float64{1, 1, 1, 1, 1e-9}
	res, err := WLS(x, y, wGood)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Coef[0], 2, 1e-3) || !almost(res.Coef[1], 1, 1e-3) {
		t.Errorf("coef = %v, want [2 1]", res.Coef)
	}
	// Same fit with uniform weights is pulled off target.
	resU, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if almost(resU.Coef[0], 2, 1e-3) {
		t.Error("unweighted fit should be corrupted by the bad row")
	}
}

func TestWLSValidation(t *testing.T) {
	x := NewMatrix(3, 2)
	if _, err := WLS(x, []float64{1, 2}, []float64{1, 1, 1}); err == nil {
		t.Error("y length mismatch should fail")
	}
	if _, err := WLS(x, []float64{1, 2, 3}, []float64{1, 1}); err == nil {
		t.Error("w length mismatch should fail")
	}
	if _, err := WLS(x, []float64{1, 2, 3}, []float64{1, -1, 1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := WLS(NewMatrix(1, 2), []float64{1}, []float64{1}); err == nil {
		t.Error("underdetermined system should fail")
	}
}

func TestLinFitKnownLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.77*x - 0.05
	}
	slope, intercept, r2, err := LinFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(slope, 2.77, 1e-9) || !almost(intercept, -0.05, 1e-9) || !almost(r2, 1, 1e-12) {
		t.Errorf("fit = %v %v %v", slope, intercept, r2)
	}
}

func TestLinFitValidation(t *testing.T) {
	if _, _, _, err := LinFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should fail")
	}
	if _, _, _, err := LinFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestR2OfMeanModelIsZero(t *testing.T) {
	// Fitting only a constant to varying data gives R^2 ~ 0.
	x := NewMatrix(4, 1)
	for i := 0; i < 4; i++ {
		x.Set(i, 0, 1)
	}
	res, err := OLS(x, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.R2, 0, 1e-9) {
		t.Errorf("R2 = %v, want 0", res.R2)
	}
}

func TestScaleRowsProperty(t *testing.T) {
	f := func(v1, v2, v3 uint8) bool {
		m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
		w := []float64{float64(v1), float64(v2), float64(v3)}
		m.ScaleRows(w)
		for i := 0; i < 3; i++ {
			if m.At(i, 0) != w[i]*float64(2*i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
