package cvode

import (
	"errors"
	"math"
)

// Dense LU factorization with partial pivoting — the direct linear
// solver behind the modified-Newton iteration (CVODE's CVDense analog).

// ErrSingular is returned when factorization meets a (numerically)
// zero pivot.
var ErrSingular = errors.New("cvode: singular matrix")

// Dense is a square matrix in row-major storage.
type Dense struct {
	N int
	A []float64
}

// NewDense allocates an N x N zero matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, A: make([]float64, n*n)}
}

// At reads entry (i, j).
func (m *Dense) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set writes entry (i, j).
func (m *Dense) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

// LU holds a factorization P A = L U.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// newLU allocates factorization storage for n x n matrices.
func newLU(n int) *LU {
	return &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
}

// factorInto computes the LU decomposition of m with partial pivoting
// into f's storage (m is untouched). On ErrSingular f holds a partial
// factorization and must not be used.
func factorInto(f *LU, m *Dense) error {
	n := f.n
	lu := f.lu[:n*n]
	piv := f.piv[:n]
	copy(lu, m.A[:n*n])
	for k := 0; k < n; k++ {
		prow := lu[k*n : k*n+n]
		// Pivot search.
		p := k
		maxAbs := math.Abs(prow[k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				maxAbs, p = a, i
			}
		}
		piv[k] = p
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return ErrSingular
		}
		if p != k {
			qrow := lu[p*n : p*n+n]
			for j := range prow {
				prow[j], qrow[j] = qrow[j], prow[j]
			}
		}
		inv := 1 / prow[k]
		for i := k + 1; i < n; i++ {
			row := lu[i*n : i*n+n]
			l := row[k] * inv
			row[k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				row[j] -= l * prow[j]
			}
		}
	}
	return nil
}

// Solve overwrites b with the solution of A x = b.
func (f *LU) Solve(b []float64) {
	n := f.n
	b = b[:n]
	lu := f.lu[:n*n]
	// Apply every row swap first, then forward-substitute L (LAPACK
	// getrs order): factorInto swaps whole rows, so the multipliers
	// stored in row k belong to the row that ended up there, not to the
	// row that held position k when they were computed.
	for k, p := range f.piv[:n] {
		if p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	for k := 0; k < n; k++ {
		bk := b[k]
		for i := k + 1; i < n; i++ {
			b[i] -= lu[i*n+k] * bk
		}
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : i*n+n]
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= row[j] * b[j]
		}
		b[i] = sum / row[i]
	}
}
