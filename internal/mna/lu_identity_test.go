package mna

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refLUFactor is the row-swapping kernel luFactor replaced, kept as the
// reference its results must match bit for bit.
func refLUFactor(m []float64, perm []int, dinv []float64, n int) error {
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		p := k
		max := math.Abs(m[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m[i*n+k]); v > max {
				max = v
				p = i
			}
		}
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("%w: zero pivot in column %d", ErrSingular, k)
		}
		if p != k {
			rowK := m[k*n : k*n+n]
			rowP := m[p*n : p*n+n]
			for j := 0; j < n; j++ {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		pivInv := 1 / m[k*n+k]
		dinv[k] = pivInv
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

// refLUSolve is the substitution that goes with refLUFactor.
func refLUSolve(m []float64, perm []int, dinv []float64, n int, b, x []float64) {
	for i := 0; i < n; i++ {
		x[i] = b[perm[i]]
	}
	for i := 1; i < n; i++ {
		row := m[i*n : i*n+i]
		sum := x[i]
		for j, l := range row {
			sum -= l * x[j]
		}
		x[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		row := m[i*n+i : i*n+n]
		sum := x[i]
		for j := 1; j < len(row); j++ {
			sum -= row[j] * x[i+j]
		}
		x[i] = sum * dinv[i]
	}
}

// mnaShaped returns a random n×n matrix shaped like a stamped MNA system:
// node rows with about half their entries exactly zero, drawn partly
// from a few magnitudes so that pivot candidates tie, then nb
// voltage-source branches whose rows and columns hold ±1 and a zero
// diagonal. One column is then made to tie exactly: several of its
// entries get the same magnitude with mixed signs.
func mnaShaped(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n*n)
	nb := 1 + rng.Intn(3)
	nodes := n - nb
	magnitudes := []float64{1, 2, 0.5, 1e-3}
	value := func() float64 {
		var v float64
		if rng.Intn(2) == 0 {
			v = magnitudes[rng.Intn(len(magnitudes))]
		} else {
			v = math.Exp(rng.NormFloat64() * 4)
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if rng.Intn(2) == 0 {
				m[i*n+j] = value()
			}
		}
	}
	for br := nodes; br < n; br++ {
		plus, minus := rng.Intn(nodes), rng.Intn(nodes+1)-1 // -1: ground
		if minus == plus {
			minus = -1
		}
		m[plus*n+br], m[br*n+plus] = 1, 1
		if minus >= 0 {
			m[minus*n+br], m[br*n+minus] = -1, -1
		}
	}
	col := rng.Intn(n)
	v := value()
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			m[i*n+col] = math.Copysign(v, float64(rng.Intn(2)*2-1))
		}
	}
	return m
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLUMatchesRowSwappingKernel: the kernel that pivots through perm
// alone returns bit for bit what the row-swapping kernel returns — the
// same perm, reciprocal pivots, factors (row perm[i] of its workspace
// against row i of the reference's), solutions and errors — on random
// MNA-shaped matrices with exact zeros, ±1 branch rows and columns and
// pivot ties, also when a column is all zero or holds a NaN.
func TestLUMatchesRowSwappingKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	singular, nan, solved := 0, 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 8 + rng.Intn(9)
		a := mnaShaped(rng, n)
		switch trial % 10 {
		case 8: // singular: one all-zero column
			c := rng.Intn(n)
			for i := 0; i < n; i++ {
				a[i*n+c] = 0
			}
		case 9: // one NaN in a column
			a[rng.Intn(n)*n+rng.Intn(n)] = math.NaN()
		}
		ref, got := append([]float64(nil), a...), append([]float64(nil), a...)
		refPerm, gotPerm := make([]int, n), make([]int, n)
		refDinv, gotDinv := make([]float64, n), make([]float64, n)
		refErr := refLUFactor(ref, refPerm, refDinv, n)
		gotErr := luFactor(got, gotPerm, gotDinv, n)
		if fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
			t.Fatalf("trial %d: error %v, want %v", trial, gotErr, refErr)
		}
		if refErr != nil {
			singular++
			continue
		}
		for i := range refPerm {
			if gotPerm[i] != refPerm[i] {
				t.Fatalf("trial %d: perm %v, want %v", trial, gotPerm, refPerm)
			}
		}
		if !sameBits(gotDinv, refDinv) {
			t.Fatalf("trial %d: reciprocal pivots differ", trial)
		}
		for i := 0; i < n; i++ {
			r := gotPerm[i] * n
			if !sameBits(got[r:r+n], ref[i*n:i*n+n]) {
				t.Fatalf("trial %d: factor row %d differs", trial, i)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		refX, gotX := make([]float64, n), make([]float64, n)
		refLUSolve(ref, refPerm, refDinv, n, b, refX)
		luSolve(got, gotPerm, gotDinv, n, b, gotX)
		if !sameBits(gotX, refX) {
			t.Fatalf("trial %d: solution %v, want %v", trial, gotX, refX)
		}
		for _, v := range gotX {
			if math.IsNaN(v) {
				nan++
				break
			}
		}
		solved++
	}
	// The generator must reach every case the test claims to cover.
	if singular < 300 || nan == 0 || solved < 2000 {
		t.Errorf("coverage: %d singular, %d NaN solutions, %d solved", singular, nan, solved)
	}
}
