package linalg

import (
	"fmt"
	"math"
)

// WLSResult carries the output of a weighted least-squares fit.
type WLSResult struct {
	// Coef is the estimated coefficient vector (Pi in the paper).
	Coef []float64
	// Fitted is X * Coef.
	Fitted []float64
	// Residuals is Y - Fitted (epsilon in the paper).
	Residuals []float64
	// RelErr is ||Y - X Pi|| / ||Y||, the figure of merit the paper quotes
	// (0.83% for the Blink calibration of Table 2).
	RelErr float64
	// R2 is the (unweighted) coefficient of determination.
	R2 float64
}

// WLS computes the weighted multivariate least-squares estimate of
// Section 2.5:
//
//	Pi = (X^T W X)^-1 X^T W Y
//
// where W = diag(w). It is implemented as a QR factorization of
// diag(sqrt(w)) X against diag(sqrt(w)) Y, which solves the same normal
// equations with better conditioning. Weights must be non-negative; rows
// with zero weight are effectively ignored.
func WLS(x *Matrix, y, w []float64) (*WLSResult, error) {
	m, n := x.Rows(), x.Cols()
	if len(y) != m {
		return nil, fmt.Errorf("linalg: WLS y length %d != rows %d", len(y), m)
	}
	if len(w) != m {
		return nil, fmt.Errorf("linalg: WLS w length %d != rows %d", len(w), m)
	}
	if m < n {
		return nil, fmt.Errorf("linalg: WLS underdetermined: %d observations for %d predictors", m, n)
	}
	sqw := make([]float64, m)
	for i, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			return nil, fmt.Errorf("linalg: WLS negative or NaN weight at row %d", i)
		}
		sqw[i] = math.Sqrt(wi)
	}
	xs := x.Clone().ScaleRows(sqw)
	ys := make([]float64, m)
	for i := range y {
		ys[i] = y[i] * sqw[i]
	}
	qr, err := NewQR(xs)
	if err != nil {
		return nil, err
	}
	coef, err := qr.Solve(ys)
	if err != nil {
		return nil, err
	}
	fitted := x.MulVec(coef)
	res := Sub(y, fitted)
	ny := Norm2(y)
	relErr := 0.0
	if ny > 0 {
		relErr = Norm2(res) / ny
	}
	// R^2 against the mean model.
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(m)
	var ssTot, ssRes float64
	for i, v := range y {
		ssTot += (v - mean) * (v - mean)
		ssRes += res[i] * res[i]
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return &WLSResult{Coef: coef, Fitted: fitted, Residuals: res, RelErr: relErr, R2: r2}, nil
}

// OLS is ordinary (unweighted) least squares, used by Table 2's
// calibration fit and by LinFit.
func OLS(x *Matrix, y []float64) (*WLSResult, error) {
	w := make([]float64, x.Rows())
	for i := range w {
		w[i] = 1
	}
	return WLS(x, y, w)
}

// LinFit fits y = a*x + b by least squares and returns slope a, intercept b
// and R^2. It reproduces the paper's pulse-frequency linearity check
// (I_avg = 2.77 f_iC - 0.05, R^2 = 0.99995).
func LinFit(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("linalg: LinFit wants >=2 equal-length samples, got %d/%d", len(xs), len(ys))
	}
	x := NewMatrix(len(xs), 2)
	for i, v := range xs {
		x.Set(i, 0, v)
		x.Set(i, 1, 1)
	}
	res, err := OLS(x, ys)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Coef[0], res.Coef[1], res.R2, nil
}
