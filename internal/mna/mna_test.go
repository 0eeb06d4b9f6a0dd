package mna

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// solve factors and solves a real system into a fresh vector.
func solve(s *System) ([]float64, error) {
	_, b := s.Buffers()
	x := make([]float64, len(b))
	_, err := s.FactorSolveInto(x)
	return x, err
}

// csolve factors and solves an n-dimensional complex system into a
// fresh vector.
func csolve(s *ComplexSystem, n int) ([]complex128, error) {
	x := make([]complex128, n)
	err := s.FactorSolveInto(x)
	return x, err
}

// stampVSource stamps an ideal voltage source with branch unknown br,
// V(plus) − V(minus) = v, the way the source devices do.
func stampVSource(s *System, br, plus, minus int, v float64) {
	s.Add(plus, br, 1)
	s.Add(minus, br, -1)
	s.Add(br, plus, 1)
	s.Add(br, minus, -1)
	s.AddRHS(br, v)
}

func TestSolveIdentity(t *testing.T) {
	s := NewSystem(3)
	for i := 0; i < 3; i++ {
		s.Add(i, i, 1)
		s.AddRHS(i, float64(i+1))
	}
	x, err := solve(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !almostEqual(x[i], float64(i+1), 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], float64(i+1))
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5].
	s := NewSystem(2)
	s.Add(0, 0, 2)
	s.Add(0, 1, 1)
	s.Add(1, 0, 1)
	s.Add(1, 1, 3)
	s.AddRHS(0, 3)
	s.AddRHS(1, 5)
	x, err := solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 0.8, 1e-12) || !almostEqual(x[1], 1.4, 1e-12) {
		t.Errorf("x = %v, want [0.8 1.4]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	s := NewSystem(2)
	s.Add(0, 0, 0)
	s.Add(0, 1, 1)
	s.Add(1, 0, 1)
	s.Add(1, 1, 0)
	s.AddRHS(0, 2)
	s.AddRHS(1, 3)
	x, err := solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSingularMatrix(t *testing.T) {
	s := NewSystem(2)
	s.Add(0, 0, 1)
	s.Add(0, 1, 2)
	s.Add(1, 0, 2)
	s.Add(1, 1, 4)
	if _, err := solve(s); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorSolveInto err = %v, want ErrSingular", err)
	}
}

func TestGroundIndexIgnored(t *testing.T) {
	s := NewSystem(2)
	s.StampConductance(-1, 0, 5) // half to ground
	s.StampConductance(0, 1, 2)
	s.StampCurrent(-1, 0, 1e-3) // 1 mA into node 0
	s.Add(1, 1, 1)              // pin node 1 weakly so the system is regular
	// Only the non-ground halves land: A[0][0] = 5+2, b[0] = 1e-3.
	if a, b := s.Buffers(); a[0] != 7 || b[0] != 1e-3 {
		t.Errorf("A[0][0] = %g, b[0] = %g, want 7 and 1e-3", a[0], b[0])
	}
	x, err := solve(s)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0: (5+2)V0 - 2V1 = 1e-3 ; node 1: -2V0 + 3V1 = 0.
	v1 := 2 * x[0] / 3
	if !almostEqual(x[1], v1, 1e-12) {
		t.Errorf("node1 = %g, want %g", x[1], v1)
	}
}

func TestVoltageDividerStamp(t *testing.T) {
	// 10 V source, two 1 kΩ resistors in series to ground; middle node = 5 V.
	// Unknowns: 0 = top node, 1 = middle node, 2 = source branch current.
	s := NewSystem(3)
	g := 1e-3
	s.StampConductance(0, 1, g)
	s.StampConductance(1, -1, g)
	stampVSource(s, 2, 0, -1, 10)
	x, err := solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 10, 1e-9) {
		t.Errorf("top = %g, want 10", x[0])
	}
	if !almostEqual(x[1], 5, 1e-9) {
		t.Errorf("mid = %g, want 5", x[1])
	}
	// Branch current flows out of the + terminal through the divider: 5 mA.
	if !almostEqual(x[2], -5e-3, 1e-9) {
		t.Errorf("branch current = %g, want -5e-3", x[2])
	}
}

func TestVCCSStamp(t *testing.T) {
	// VCCS from a fixed control voltage drives current into a 1 kΩ load.
	// Unknowns: 0 = control node, 1 = load node, 2 = control source branch.
	s := NewSystem(3)
	stampVSource(s, 2, 0, -1, 2)    // V(control) = 2
	s.StampConductance(1, -1, 1e-3) // load
	s.StampVCCS(-1, 1, 0, -1, 1e-3) // i = 1m*Vctl from gnd into load node
	s.Add(0, 0, 0)                  // no-op, control handled by source
	x, err := solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[1], 2, 1e-9) {
		t.Errorf("load = %g, want 2 (1m*2V across 1k)", x[1])
	}
}

func TestClearResets(t *testing.T) {
	s := NewSystem(2)
	s.Add(0, 0, 3)
	s.AddRHS(1, 4)
	s.ClearMatrix()
	s.ClearRHS()
	if a, b := s.Buffers(); a[0] != 0 || b[1] != 0 {
		t.Error("ClearMatrix/ClearRHS did not zero the system")
	}
}

// TestRandomSystemsResidual is a property test: for random well-conditioned
// systems, the solution satisfies A x = b to tight tolerance.
func TestRandomSystemsResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		s := NewSystem(n)
		a := make([]float64, n*n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				if i == j {
					v += float64(n) * 2 // diagonal dominance
				}
				a[i*n+j] = v
				s.Add(i, j, v)
			}
			b[i] = rng.NormFloat64()
			s.AddRHS(i, b[i])
		}
		x, err := solve(s)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a[i*n+j] * x[j]
			}
			if !almostEqual(sum, b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRefactorAfterRestamp verifies FactorSolveInto can be repeated
// after clearing and re-stamping, the pattern of every Newton iteration.
func TestRefactorAfterRestamp(t *testing.T) {
	s := NewSystem(1)
	for k := 1; k <= 5; k++ {
		s.ClearMatrix()
		s.ClearRHS()
		s.Add(0, 0, float64(k))
		s.AddRHS(0, float64(k*k))
		x, err := solve(s)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(x[0], float64(k), 1e-12) {
			t.Fatalf("iteration %d: x = %g, want %d", k, x[0], k)
		}
	}
}

// TestSolveReusesBuffer: SolveInto re-solves the current factorization
// into the caller's buffer, for a new right-hand side.
func TestSolveReusesBuffer(t *testing.T) {
	s := NewSystem(1)
	s.Add(0, 0, 4)
	s.AddRHS(0, 2)
	x := make([]float64, 1)
	if _, err := s.FactorSolveInto(x); err != nil {
		t.Fatal(err)
	}
	s.SetRHS([]float64{8})
	s.SolveInto(x)
	if x[0] != 2 {
		t.Errorf("x = %g, want 2", x[0])
	}
}

func TestComplexSolveKnown(t *testing.T) {
	// (1+j) x = 2 -> x = 1-j.
	s := NewComplexSystem(1)
	s.Add(0, 0, complex(1, 1))
	s.AddRHS(0, 2)
	x, err := csolve(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(x[0])-1) > 1e-12 || math.Abs(imag(x[0])+1) > 1e-12 {
		t.Errorf("x = %v, want (1-1i)", x[0])
	}
}

func TestComplexRCAdmittance(t *testing.T) {
	// Node with R to ground and C to ground driven by 1 A: V = 1/(G + jωC).
	s := NewComplexSystem(1)
	g := 1e-3
	w := 2 * math.Pi * 1e3
	c := 1e-6
	s.StampAdmittance(0, -1, complex(g, w*c))
	s.StampCurrent(-1, 0, 1)
	x, err := csolve(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	den := complex(g, w*c)
	want := 1 / den
	if math.Abs(real(x[0])-real(want)) > 1e-9 || math.Abs(imag(x[0])-imag(want)) > 1e-9 {
		t.Errorf("V = %v, want %v", x[0], want)
	}
}

func TestComplexSingular(t *testing.T) {
	s := NewComplexSystem(2)
	s.Add(0, 0, 1)
	s.Add(1, 0, 1)
	if _, err := csolve(s, 2); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorSolveInto err = %v, want ErrSingular", err)
	}
}

func TestComplexVoltageSource(t *testing.T) {
	// Phasor source across an RC divider.
	s := NewComplexSystem(3)
	s.StampAdmittance(0, 1, 1e-3)
	s.StampAdmittance(1, -1, complex(0, 1e-3)) // purely capacitive leg
	// The source branch: V(0) = 1.
	s.Add(0, 2, 1)
	s.Add(2, 0, 1)
	s.AddRHS(2, 1)
	x, err := csolve(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Divider: V1 = (1/j·1e-3 leg) / total = 1/(1+j) = 0.5 − 0.5j.
	if math.Abs(real(x[1])-0.5) > 1e-9 || math.Abs(imag(x[1])+0.5) > 1e-9 {
		t.Errorf("V1 = %v, want 0.5-0.5i", x[1])
	}
}

func TestNewSystemPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSystem(-1) did not panic")
		}
	}()
	NewSystem(-1)
}
