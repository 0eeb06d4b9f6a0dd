// Package mna provides the modified-nodal-analysis (MNA) linear systems
// used by the circuit simulator: dense real and complex matrices with LU
// factorization, and the index bookkeeping that maps circuit nodes and
// source branches onto matrix rows.
//
// Analog macros are small (tens of unknowns), so a dense solver with
// partial pivoting is both simpler and faster than a sparse one.
//
// The hot-path API is allocation-free: SolveInto/FactorSolveInto reuse
// the system's permutation and scratch buffers, and SaveMatrix/SetMatrix
// (plus the RHS variants) let an engine snapshot the linear part of a
// stamped system once and restore it by copy instead of clearing and
// re-stamping every Newton iteration.
package mna

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when LU factorization encounters a pivot that is
// numerically zero, i.e. the circuit matrix is singular (floating node,
// voltage-source loop, ...).
var ErrSingular = errors.New("mna: singular matrix")

// The LU kernels open the file, so the code alignment of their hot loops
// does not move when the System methods change size (DESIGN.md §16).

// luFactor performs in-place Doolittle LU with partial pivoting on the
// row-major n×n matrix m, recording the pivot rows in perm and the
// reciprocal pivots in dinv.
//
// Rows never move. perm[k] names the physical row that holds pivot k,
// and pivoting swaps perm entries only. The pivot search scans the
// candidate rows in perm order, so ties resolve as in a kernel that
// swaps rows: perm ends up holding the same values, every row receives
// the same updates in the same order, and row perm[i] of m holds what
// row i of a row-swapping kernel's result would (DESIGN.md §8). The
// inner elimination runs on row slices so the compiler can drop bounds
// checks.
func luFactor(m []float64, perm []int, dinv []float64, n int) error {
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		p := k
		max := math.Abs(m[perm[k]*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m[perm[i]*n+k]); v > max {
				max = v
				p = i
			}
		}
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("%w: zero pivot in column %d", ErrSingular, k)
		}
		perm[k], perm[p] = perm[p], perm[k]
		// One division per pivot, multiplied through the column: at the
		// small dimensions of analog macros the n²/2 scalar divisions are
		// a sizable slice of the factorization, and a divide is an order
		// of magnitude slower than a multiply.
		rk := perm[k] * n
		pivInv := 1 / m[rk+k]
		dinv[k] = pivInv
		rowK := m[rk+k+1 : rk+n]
		for _, r := range perm[k+1 : n] {
			ri := r * n
			l := m[ri+k] * pivInv
			m[ri+k] = l
			if l == 0 {
				continue
			}
			rowI := m[ri+k+1 : ri+n][:len(rowK)]
			for j := range rowK {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return nil
}

// luSolve solves LU·x = P·b: the permutation is applied while copying b
// into x, so no scratch buffer is needed, and row i of the factors is
// read from physical row perm[i]. x and b must not alias.
func luSolve(m []float64, perm []int, dinv []float64, n int, b, x []float64) {
	// Apply permutation during the copy.
	for i := 0; i < n; i++ {
		x[i] = b[perm[i]]
	}
	// Forward substitution (unit lower triangle).
	for i := 1; i < n; i++ {
		r := perm[i] * n
		row := m[r : r+i]
		sum := x[i]
		for j, l := range row {
			sum -= l * x[j]
		}
		x[i] = sum
	}
	// Back substitution, dividing by reciprocal multiplication.
	for i := n - 1; i >= 0; i-- {
		r := perm[i] * n
		row := m[r+i : r+n]
		sum := x[i]
		for j := 1; j < len(row); j++ {
			sum -= row[j] * x[i+j]
		}
		x[i] = sum * dinv[i]
	}
}

// System is a dense real linear system A·x = b of dimension n.
//
// Row/column index 0 corresponds to the first non-ground unknown; the
// ground node is eliminated by convention. Stamping helpers accept the
// value -1 for "ground" and silently drop contributions to that row or
// column, so device code can stamp without special-casing ground.
type System struct {
	n    int
	a    []float64 // row-major n×n
	b    []float64
	lu   []float64 // factorization workspace
	perm []int     // perm[k] is the physical row of pivot k (luFactor)
	prev []float64 // matrix bits behind the current factorization
	dinv []float64 // reciprocal pivots of the factorization
	luOK bool      // lu/perm correspond to prev
}

// NewSystem returns a zeroed n-dimensional system.
func NewSystem(n int) *System {
	if n < 0 {
		panic(fmt.Sprintf("mna: negative dimension %d", n))
	}
	return &System{
		n:    n,
		a:    make([]float64, n*n),
		b:    make([]float64, n),
		lu:   make([]float64, n*n),
		perm: make([]int, n),
		prev: make([]float64, n*n),
		dinv: make([]float64, n),
	}
}

// ClearMatrix zeroes the matrix only.
func (s *System) ClearMatrix() {
	for i := range s.a {
		s.a[i] = 0
	}
}

// ClearRHS zeroes the right-hand side only.
func (s *System) ClearRHS() {
	for i := range s.b {
		s.b[i] = 0
	}
}

// SaveMatrix copies the stamped matrix into dst, which must have length
// n·n for dimension n. Together with SetMatrix it implements the linear-snapshot
// fast path: stamp the x-independent part once, save it, and restore it
// by copy before each Newton iteration's nonlinear delta.
func (s *System) SaveMatrix(dst []float64) { copy(dst, s.a) }

// SetMatrix overwrites the matrix from src (length n·n).
func (s *System) SetMatrix(src []float64) { copy(s.a, src) }

// SaveRHS copies the stamped right-hand side into dst (length n).
func (s *System) SaveRHS(dst []float64) { copy(dst, s.b) }

// SetRHS overwrites the right-hand side from src (length n).
func (s *System) SetRHS(src []float64) { copy(s.b, src) }

// Buffers returns the matrix (row-major, n·n) and right-hand-side
// buffers themselves, for stampers that add to entries by precomputed
// flat offsets i·n+j instead of through Add. FactorSolveInto recycles
// the matrix buffer, so fetch the slices again after every SetMatrix
// rather than holding them across solves.
func (s *System) Buffers() (a, b []float64) { return s.a, s.b }

// Add adds v to matrix entry (i, j). Either index may be -1 (ground), in
// which case the contribution is dropped.
func (s *System) Add(i, j int, v float64) {
	if i < 0 || j < 0 {
		return
	}
	s.a[i*s.n+j] += v
}

// AddRHS adds v to right-hand-side entry i; i may be -1 (ground).
func (s *System) AddRHS(i int, v float64) {
	if i < 0 {
		return
	}
	s.b[i] += v
}

// StampConductance stamps a two-terminal conductance g between unknowns i
// and j (either may be -1 for ground): the usual
//
//	[ +g  -g ]
//	[ -g  +g ]
//
// pattern.
func (s *System) StampConductance(i, j int, g float64) {
	s.Add(i, i, g)
	s.Add(j, j, g)
	s.Add(i, j, -g)
	s.Add(j, i, -g)
}

// StampCurrent stamps an independent current i flowing from node a into
// node b (current leaves a, enters b).
func (s *System) StampCurrent(a, b int, cur float64) {
	s.AddRHS(a, -cur)
	s.AddRHS(b, cur)
}

// StampVCCS stamps a voltage-controlled current source: a current
// g·(V(cp)−V(cm)) flowing from node p to node m.
func (s *System) StampVCCS(p, m, cp, cm int, g float64) {
	s.Add(p, cp, g)
	s.Add(p, cm, -g)
	s.Add(m, cp, -g)
	s.Add(m, cm, g)
}

// SolveInto solves the factored system for the stamped right-hand side
// into dst (length n), without allocating. dst must not alias the
// system's RHS buffer.
func (s *System) SolveInto(dst []float64) {
	luSolve(s.lu, s.perm, s.dinv, s.n, s.b, dst)
}

// FactorSolveInto factors and solves into dst without allocating — the
// zero-allocation Newton kernel. It carries the same-pattern fast path:
// when the stamped matrix is bit-identical to the one behind the current
// factorization (common once Newton has settled onto a fixed point), the
// LU and permutation are reused and only the substitution runs. A reused
// factorization yields bit-identical results by construction. Returns
// whether the factorization was reused.
//
// The call is destructive: the stamp buffer is recycled, so re-stamp
// (or SetMatrix) before the next solve.
func (s *System) FactorSolveInto(dst []float64) (reused bool, err error) {
	if s.luOK && equalBits(s.a, s.prev) {
		s.SolveInto(dst)
		return true, nil
	}
	// Keep the pristine stamped bits in prev for the next comparison and
	// factor a copy.
	s.a, s.prev = s.prev, s.a
	copy(s.lu, s.prev)
	s.luOK = false
	if err := luFactor(s.lu, s.perm, s.dinv, s.n); err != nil {
		return false, err
	}
	s.luOK = true
	s.SolveInto(dst)
	return false, nil
}

// equalBits reports whether a and b hold identical values. The compare
// uses != so any NaN forces a refactor; ±0 compare equal, which is safe
// because the sign of a zero never changes pivot selection.
func equalBits(a, b []float64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
