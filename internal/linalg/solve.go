package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system is (numerically) rank-deficient —
// in Quanto terms, when the tracked power states never varied independently
// enough to disambiguate their draws (Section 5.2, "Linear independence").
var ErrSingular = errors.New("linalg: singular or rank-deficient system")

// QR holds the Householder factorization A = Q R of an m x n matrix with
// m >= n. It is stored compactly: R in the upper triangle, the Householder
// vectors below.
type QR struct {
	qr   *Matrix
	tau  []float64
	rows int
	cols int
}

// NewQR factors a (not modified).
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR wants rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			return nil, ErrSingular
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		tau[k] = norm
		// Apply to remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
	}
	return &QR{qr: qr, tau: tau, rows: m, cols: n}, nil
}

// Solve returns the least-squares solution x minimizing ||A x - b||2.
func (f *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != f.rows {
		return nil, fmt.Errorf("linalg: QR solve rhs length %d != %d", len(b), f.rows)
	}
	y := make([]float64, f.rows)
	copy(y, b)
	// Apply Q^T.
	for k := 0; k < f.cols; k++ {
		var s float64
		for i := k; i < f.rows; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < f.rows; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R x = y[:n]. R(k,k) = -tau[k].
	x := make([]float64, f.cols)
	for i := f.cols - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < f.cols; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		d := -f.tau[i]
		if math.Abs(d) < 1e-12 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}
