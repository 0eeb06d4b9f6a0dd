package device

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mna"
)

func TestBJTForwardActiveCurrents(t *testing.T) {
	q := NewBJT("Q1", "c", "b", "e", DefaultNPNModel())
	resolve(q, 0, 1, 2)
	// Forward active: vbe = 0.65, vbc < 0.
	x := []float64{5, 0.65, 0}
	ic := q.CollectorCurrent(x)
	ib := q.BaseCurrent(x)
	wantIc := 1e-15 * (math.Exp(0.65/0.02585) - 1)
	if math.Abs(ic-wantIc) > 1e-3*wantIc {
		t.Errorf("Ic = %g, want %g", ic, wantIc)
	}
	if beta := ic / ib; math.Abs(beta-100) > 1 {
		t.Errorf("beta = %g, want 100", beta)
	}
}

func TestBJTOffState(t *testing.T) {
	q := NewBJT("Q1", "c", "b", "e", DefaultNPNModel())
	resolve(q, 0, 1, 2)
	x := []float64{5, 0, 0}
	if ic := q.CollectorCurrent(x); math.Abs(ic) > 1e-14 {
		t.Errorf("off-state Ic = %g", ic)
	}
}

func TestPNPMirrorsNPN(t *testing.T) {
	n := NewBJT("QN", "c", "b", "e", DefaultNPNModel())
	pm := *DefaultNPNModel()
	pm.Type = PNP
	p := NewBJT("QP", "c", "b", "e", &pm)
	resolve(n, 0, 1, 2)
	resolve(p, 0, 1, 2)
	xn := []float64{5, 0.65, 0}
	xp := []float64{-5, -0.65, 0}
	if in, ip := n.CollectorCurrent(xn), p.CollectorCurrent(xp); math.Abs(in+ip) > 1e-12*math.Abs(in) {
		t.Errorf("NPN Ic=%g, PNP Ic=%g, want opposite", in, ip)
	}
}

// TestBJTStampConsistency: at the linearization point, A·x − b reproduces
// the exact terminal currents for both flavours.
func TestBJTStampConsistency(t *testing.T) {
	f := func(vcRaw, vbRaw, veRaw float64, pnp bool) bool {
		clamp := func(v float64) float64 { return math.Mod(math.Abs(v), 1.4) }
		vc, vb, ve := clamp(vcRaw)*3, clamp(vbRaw), clamp(veRaw)
		m := DefaultNPNModel()
		if pnp {
			mm := *DefaultPNPModel()
			m = &mm
			vc, vb, ve = -vc, -vb, -ve
		}
		q := NewBJT("Q1", "c", "b", "e", m)
		resolve(q, 0, 1, 2)
		x := []float64{vc, vb, ve}
		s := mna.NewSystem(3)
		q.Stamp(s, x, opCtx())
		for row, want := range map[int]float64{
			0: q.CollectorCurrent(x),
			1: q.BaseCurrent(x),
			2: -(q.CollectorCurrent(x) + q.BaseCurrent(x)),
		} {
			lhs := 0.0
			for j := 0; j < 3; j++ {
				lhs += entry(s, row, j) * x[j]
			}
			lhs -= rhs(s, row)
			tol := 1e-9 * math.Max(1, math.Abs(want))
			if math.Abs(lhs-want) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBJTLimitedExponentFinite(t *testing.T) {
	q := NewBJT("Q1", "c", "b", "e", DefaultNPNModel())
	resolve(q, 0, 1, 2)
	ic := q.CollectorCurrent([]float64{5, 3, 0}) // vbe = 3 V
	if math.IsInf(ic, 0) || math.IsNaN(ic) {
		t.Error("limited exponential overflowed")
	}
}

func TestBJTCloneIndependence(t *testing.T) {
	q := NewBJT("Q1", "c", "b", "e", DefaultNPNModel())
	c := q.Clone().(*BJT)
	c.Model.BF = 5
	if q.Model.BF != 100 {
		t.Error("clone shares model with original")
	}
}

func TestBJTPanicsOnBadModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad model accepted")
		}
	}()
	NewBJT("Q1", "c", "b", "e", &BJTModel{Type: NPN, IS: 0, BF: 100, BR: 1, VT: 0.025})
}
