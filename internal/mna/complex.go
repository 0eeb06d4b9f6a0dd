package mna

import (
	"fmt"
)

// ComplexSystem is the complex-valued analogue of System, used by the AC
// small-signal analysis where reactive stamps are jωC / 1/(jωL).
type ComplexSystem struct {
	n    int
	a    []complex128
	b    []complex128
	lu   []complex128
	perm []int
	dinv []complex128 // reciprocal pivots of the factorization
}

// NewComplexSystem returns a zeroed n-dimensional complex system.
func NewComplexSystem(n int) *ComplexSystem {
	if n < 0 {
		panic(fmt.Sprintf("mna: negative dimension %d", n))
	}
	return &ComplexSystem{
		n:    n,
		a:    make([]complex128, n*n),
		b:    make([]complex128, n),
		lu:   make([]complex128, n*n),
		perm: make([]int, n),
		dinv: make([]complex128, n),
	}
}

// Clear zeroes the matrix and right-hand side.
func (s *ComplexSystem) Clear() {
	s.ClearMatrix()
	s.ClearRHS()
}

// ClearMatrix zeroes the matrix only.
func (s *ComplexSystem) ClearMatrix() {
	for i := range s.a {
		s.a[i] = 0
	}
}

// ClearRHS zeroes the right-hand side only.
func (s *ComplexSystem) ClearRHS() {
	for i := range s.b {
		s.b[i] = 0
	}
}

// SaveMatrix copies the stamped matrix into dst (length n·n).
// With SetMatrix it implements the cached-base fast path of AC sweeps:
// the frequency-independent stamps are assembled once and restored by
// copy at every frequency point, which then only adds the jω terms.
func (s *ComplexSystem) SaveMatrix(dst []complex128) { copy(dst, s.a) }

// SetMatrix overwrites the matrix from src (length n·n).
func (s *ComplexSystem) SetMatrix(src []complex128) { copy(s.a, src) }

// SaveRHS copies the right-hand side into dst (length n).
func (s *ComplexSystem) SaveRHS(dst []complex128) { copy(dst, s.b) }

// SetRHS overwrites the right-hand side from src (length n).
func (s *ComplexSystem) SetRHS(src []complex128) { copy(s.b, src) }

// Add adds v to matrix entry (i, j); either index may be -1 (ground).
func (s *ComplexSystem) Add(i, j int, v complex128) {
	if i < 0 || j < 0 {
		return
	}
	s.a[i*s.n+j] += v
}

// AddRHS adds v to right-hand-side entry i; i may be -1 (ground).
func (s *ComplexSystem) AddRHS(i int, v complex128) {
	if i < 0 {
		return
	}
	s.b[i] += v
}

// StampAdmittance stamps a two-terminal admittance y between unknowns i
// and j (either may be -1 for ground).
func (s *ComplexSystem) StampAdmittance(i, j int, y complex128) {
	s.Add(i, i, y)
	s.Add(j, j, y)
	s.Add(i, j, -y)
	s.Add(j, i, -y)
}

// StampCurrent stamps a phasor current flowing from node a into node b.
func (s *ComplexSystem) StampCurrent(a, b int, cur complex128) {
	s.AddRHS(a, -cur)
	s.AddRHS(b, cur)
}

// StampVCCS stamps a voltage-controlled current source with transadmittance g.
func (s *ComplexSystem) StampVCCS(p, m, cp, cm int, g complex128) {
	s.Add(p, cp, g)
	s.Add(p, cm, -g)
	s.Add(m, cp, -g)
	s.Add(m, cm, g)
}

// abs2 is the squared magnitude |z|². The pivot search maximizes it
// instead of cmplx.Abs: squaring is monotonic, so the selected pivot is
// identical while avoiding a hypot call per candidate. (Entries beyond
// ±1e154, whose squares would overflow, do not occur in circuit
// matrices.)
func abs2(z complex128) float64 {
	re, im := real(z), imag(z)
	return re*re + im*im
}

func (s *ComplexSystem) factor() error {
	n := s.n
	m := s.lu
	for i := range s.perm {
		s.perm[i] = i
	}
	for k := 0; k < n; k++ {
		p := k
		max := abs2(m[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := abs2(m[i*n+k]); v > max {
				max = v
				p = i
			}
		}
		if max == 0 || max != max {
			return fmt.Errorf("%w: zero pivot in column %d", ErrSingular, k)
		}
		if p != k {
			rowK := m[k*n : k*n+n]
			rowP := m[p*n : p*n+n]
			for j := 0; j < n; j++ {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			s.perm[k], s.perm[p] = s.perm[p], s.perm[k]
		}
		// Complex division is a (slow) runtime call; divide once per pivot
		// and multiply through the column, as LAPACK's zgetrf does. The
		// reciprocal itself is conj(z)/|z|² with one real division — the
		// naive formula is safe here for the same reason abs2 is: circuit
		// matrix entries are nowhere near the ±1e154 overflow range.
		piv := m[k*n+k]
		pd := 1 / (real(piv)*real(piv) + imag(piv)*imag(piv))
		pivInv := complex(real(piv)*pd, -imag(piv)*pd)
		s.dinv[k] = pivInv
		rowK := m[k*n+k+1 : k*n+n]
		for i := k + 1; i < n; i++ {
			l := m[i*n+k] * pivInv
			m[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := m[i*n+k+1 : i*n+n][:len(rowK)]
			for j := range rowK {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return nil
}

// SolveInto solves the factored system into dst (length n) without
// allocating; the permutation is applied while copying the RHS. dst must
// not alias the system's RHS buffer.
func (s *ComplexSystem) SolveInto(dst []complex128) {
	n := s.n
	m := s.lu
	for i := 0; i < n; i++ {
		dst[i] = s.b[s.perm[i]]
	}
	for i := 1; i < n; i++ {
		row := m[i*n : i*n+i]
		sum := dst[i]
		for j, l := range row {
			sum -= l * dst[j]
		}
		dst[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		row := m[i*n+i : i*n+n]
		sum := dst[i]
		for j := 1; j < len(row); j++ {
			sum -= row[j] * dst[i+j]
		}
		dst[i] = sum * s.dinv[i]
	}
}

// FactorSolveInto factors and solves into dst without allocating. It
// is destructive: the matrix buffer becomes the LU workspace, so the
// stamps are lost; callers restore from a snapshot (or re-stamp) before
// the next solve.
func (s *ComplexSystem) FactorSolveInto(dst []complex128) error {
	s.a, s.lu = s.lu, s.a
	if err := s.factor(); err != nil {
		return err
	}
	s.SolveInto(dst)
	return nil
}
