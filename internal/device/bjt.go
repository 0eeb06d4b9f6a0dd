package device

import (
	"fmt"
	"math"

	"repro/internal/mna"
)

// BJT support (Ebers-Moll transport model) rounds out the simulator
// substrate: the paper's methodology is not CMOS-specific, and bipolar
// analog macros were the era's other mainstream implementation style.

// BJTType distinguishes NPN from PNP transistors.
type BJTType int

const (
	// NPN conducts collector current for positive VBE.
	NPN BJTType = iota
	// PNP is the complementary flavour.
	PNP
)

// String returns "npn" or "pnp".
func (t BJTType) String() string {
	if t == PNP {
		return "pnp"
	}
	return "npn"
}

// BJTModel holds Ebers-Moll transport parameters.
type BJTModel struct {
	Type BJTType
	IS   float64 // transport saturation current (A)
	BF   float64 // forward beta
	BR   float64 // reverse beta
	VT   float64 // thermal voltage (V)
}

// DefaultNPNModel returns a generic small-signal NPN.
func DefaultNPNModel() *BJTModel {
	return &BJTModel{Type: NPN, IS: 1e-15, BF: 100, BR: 2, VT: 0.02585}
}

// DefaultPNPModel returns the complementary PNP.
func DefaultPNPModel() *BJTModel {
	return &BJTModel{Type: PNP, IS: 1e-15, BF: 60, BR: 2, VT: 0.02585}
}

// BJT is a three-terminal (collector, base, emitter) bipolar transistor.
type BJT struct {
	base
	Model *BJTModel
}

// NewBJT returns a transistor with terminals (collector, base, emitter).
func NewBJT(name, c, b, e string, m *BJTModel) *BJT {
	if m == nil {
		panic("device: BJT requires a model")
	}
	if m.BF <= 0 || m.BR <= 0 || m.IS <= 0 || m.VT <= 0 {
		panic(fmt.Sprintf("device: BJT %s with non-positive model parameters", name))
	}
	return &BJT{base: newBase(name, c, b, e), Model: m}
}

// Clone implements Device.
func (q *BJT) Clone() Device {
	m := *q.Model
	return &BJT{base: q.cloneBase(), Model: &m}
}

// limExp is an overflow-limited exponential with continuous derivative.
func limExp(x float64) (e, de float64) {
	const expCap = 40.0
	if x > expCap {
		ec := math.Exp(expCap)
		return ec * (1 + (x - expCap)), ec
	}
	e = math.Exp(x)
	return e, e
}

// currents evaluates the Ebers-Moll transport currents and their
// derivatives in the NPN convention (sign-mirrored for PNP by the
// caller): ic and ib flow INTO collector and base.
func (q *BJT) currents(vbe, vbc float64) (ic, ib, gmf, gmr, gpif, gpir float64) {
	m := q.Model
	ef, def := limExp(vbe / m.VT)
	er, der := limExp(vbc / m.VT)
	icc := m.IS * (ef - 1) // forward transport
	iec := m.IS * (er - 1) // reverse transport
	dicc := m.IS * def / m.VT
	diec := m.IS * der / m.VT

	ic = icc - iec - iec/m.BR
	ib = icc/m.BF + iec/m.BR
	gmf = dicc // ∂ic/∂vbe
	gmr = -diec * (1 + 1/m.BR)
	gpif = dicc / m.BF // ∂ib/∂vbe
	gpir = diec / m.BR // ∂ib/∂vbc
	return ic, ib, gmf, gmr, gpif, gpir
}

// Stamp implements Stamper with the linearized Ebers-Moll companion.
func (q *BJT) Stamp(s *mna.System, x []float64, ctx *Context) {
	idx := q.Terminals()
	c, b, e := idx[0], idx[1], idx[2]
	sign := 1.0
	if q.Model.Type == PNP {
		sign = -1
	}
	vbe := sign * (volt(x, b) - volt(x, e))
	vbc := sign * (volt(x, b) - volt(x, c))
	ic, ib, gmf, gmr, gpif, gpir := q.currents(vbe, vbc)

	// Linearized currents (NPN convention, into the terminal):
	//	ic ≈ ic0 + gmf·Δvbe + gmr·Δvbc
	//	ib ≈ ib0 + gpif·Δvbe + gpir·Δvbc
	// Under the PNP mirror, conductance-like stamps are invariant and
	// residual currents change sign.
	icEq := ic - gmf*vbe - gmr*vbc
	ibEq := ib - gpif*vbe - gpir*vbc

	// Collector row: current into the device at C is +ic.
	s.Add(c, b, gmf+gmr)
	s.Add(c, e, -gmf)
	s.Add(c, c, -gmr)
	// Base row.
	s.Add(b, b, gpif+gpir)
	s.Add(b, e, -gpif)
	s.Add(b, c, -gpir)
	// Emitter row: ie = -(ic+ib).
	s.Add(e, b, -(gmf + gmr + gpif + gpir))
	s.Add(e, e, gmf+gpif)
	s.Add(e, c, gmr+gpir)

	// Convergence-aid leakage.
	s.StampConductance(c, e, ctx.Gmin)
	s.StampConductance(b, e, ctx.Gmin)

	if q.Model.Type == PNP {
		s.AddRHS(c, icEq)
		s.AddRHS(b, ibEq)
		s.AddRHS(e, -(icEq + ibEq))
	} else {
		s.AddRHS(c, -icEq)
		s.AddRHS(b, -ibEq)
		s.AddRHS(e, icEq+ibEq)
	}
}

// StampACBase implements ACSplitStamper with the small-signal hybrid-π
// parameters at the operating point.
func (q *BJT) StampACBase(s *mna.ComplexSystem, xop []float64) {
	idx := q.Terminals()
	c, b, e := idx[0], idx[1], idx[2]
	sign := 1.0
	if q.Model.Type == PNP {
		sign = -1
	}
	vbe := sign * (volt(xop, b) - volt(xop, e))
	vbc := sign * (volt(xop, b) - volt(xop, c))
	_, _, gmf, gmr, gpif, gpir := q.currents(vbe, vbc)
	s.Add(c, b, complex(gmf+gmr, 0))
	s.Add(c, e, complex(-gmf, 0))
	s.Add(c, c, complex(-gmr, 0))
	s.Add(b, b, complex(gpif+gpir, 0))
	s.Add(b, e, complex(-gpif, 0))
	s.Add(b, c, complex(-gpir, 0))
	s.Add(e, b, complex(-(gmf+gmr+gpif+gpir), 0))
	s.Add(e, e, complex(gmf+gpif, 0))
	s.Add(e, c, complex(gmr+gpir, 0))
}

// StampACReactive implements ACSplitStamper: the model has no junction
// capacitances.
func (q *BJT) StampACReactive(*mna.ComplexSystem, []float64, float64) {}

// CollectorCurrent returns the current into the collector terminal.
func (q *BJT) CollectorCurrent(x []float64) float64 {
	idx := q.Terminals()
	sign := 1.0
	if q.Model.Type == PNP {
		sign = -1
	}
	vbe := sign * (volt(x, idx[1]) - volt(x, idx[2]))
	vbc := sign * (volt(x, idx[1]) - volt(x, idx[0]))
	ic, _, _, _, _, _ := q.currents(vbe, vbc)
	return sign * ic
}

// BaseCurrent returns the current into the base terminal.
func (q *BJT) BaseCurrent(x []float64) float64 {
	idx := q.Terminals()
	sign := 1.0
	if q.Model.Type == PNP {
		sign = -1
	}
	vbe := sign * (volt(x, idx[1]) - volt(x, idx[2]))
	vbc := sign * (volt(x, idx[1]) - volt(x, idx[0]))
	_, ib, _, _, _, _ := q.currents(vbe, vbc)
	return sign * ib
}
