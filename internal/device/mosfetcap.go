package device

import (
	"repro/internal/mna"
)

// Gate-capacitance extension of the level-1 MOSFET. The 1997 paper's
// macro relied on explicit compensation capacitors; real layouts add
// gate-oxide and overlap capacitance on every transistor. When a model
// carries oxide/overlap parameters, the MOSFET becomes a dynamic device
// with two charge-storage branches:
//
//	Cgs = CGSO·W + (2/3)·Cox·W·L     (channel charge assigned to the source)
//	Cgd = CGDO·W                     (overlap only, saturation convention)
//
// Both are held constant across regions (a simplified Meyer model) —
// adequate for the macro-level dynamics the test generator needs. All
// parameters default to zero, which keeps the transistor purely static.

// WithGateCaps sets oxide and overlap capacitance on a model and returns
// it, for fluent construction. cox is in F/m², cgso/cgdo in F/m.
func (m *MOSModel) WithGateCaps(cox, cgso, cgdo float64) *MOSModel {
	m.Cox = cox
	m.CGSO = cgso
	m.CGDO = cgdo
	return m
}

// Cgs returns the effective gate-source capacitance of the transistor.
func (m *MOSFET) Cgs() float64 {
	return m.Model.CGSO*m.W + (2.0/3.0)*m.Model.Cox*m.W*m.L
}

// Cgd returns the effective gate-drain capacitance of the transistor.
func (m *MOSFET) Cgd() float64 {
	return m.Model.CGDO * m.W
}

// hasCaps reports whether the transistor stores any charge.
func (m *MOSFET) hasCaps() bool { return m.Cgs() > 0 || m.Cgd() > 0 }

// NumStates implements Dynamic: [vgs, igs, vgd, igd], or none for a
// transistor without caps, which then has no dynamics to stamp.
func (m *MOSFET) NumStates() int {
	if !m.hasCaps() {
		return 0
	}
	return 4
}

// InitState implements Dynamic: capacitor voltages from the DC solution,
// zero currents.
func (m *MOSFET) InitState(x []float64, state []float64) {
	if !m.hasCaps() {
		return
	}
	vd := volt(x, m.idx[0])
	vg := volt(x, m.idx[1])
	vs := volt(x, m.idx[2])
	state[0] = vg - vs
	state[1] = 0
	state[2] = vg - vd
	state[3] = 0
}

// capCompanion computes the Norton companion of one linear capacitor.
func capCompanion(c float64, vPrev, iPrev float64, ctx *Context) (geq, ieq float64) {
	switch ctx.Integ {
	case Trapezoidal:
		geq = 2 * c / ctx.Dt
		ieq = geq*vPrev + iPrev
	default:
		geq = c / ctx.Dt
		ieq = geq * vPrev
	}
	return geq, ieq
}

// StampCompanionMatrix implements Dynamic: the conductances of the two
// gate capacitors' companion models between (gate, source) and (gate,
// drain). The simplified Meyer capacitances are region-independent
// constants, so geq depends only on the step configuration.
func (m *MOSFET) StampCompanionMatrix(s *mna.System, ctx *Context) {
	if !m.hasCaps() {
		return
	}
	d, g, src := m.idx[0], m.idx[1], m.idx[2]
	if cgs := m.Cgs(); cgs > 0 {
		geq, _ := capCompanion(cgs, 0, 0, ctx)
		s.StampConductance(g, src, geq)
	}
	if cgd := m.Cgd(); cgd > 0 {
		geq, _ := capCompanion(cgd, 0, 0, ctx)
		s.StampConductance(g, d, geq)
	}
}

// StampCompanionRHS implements Dynamic: the two gate capacitors'
// companion currents.
func (m *MOSFET) StampCompanionRHS(s *mna.System, state []float64, ctx *Context) {
	if !m.hasCaps() {
		return
	}
	d, g, src := m.idx[0], m.idx[1], m.idx[2]
	if cgs := m.Cgs(); cgs > 0 {
		_, ieq := capCompanion(cgs, state[0], state[1], ctx)
		s.StampCurrent(src, g, ieq)
	}
	if cgd := m.Cgd(); cgd > 0 {
		_, ieq := capCompanion(cgd, state[2], state[3], ctx)
		s.StampCurrent(d, g, ieq)
	}
}

// Commit implements Dynamic.
func (m *MOSFET) Commit(x []float64, state []float64, ctx *Context) {
	if !m.hasCaps() {
		return
	}
	vd := volt(x, m.idx[0])
	vg := volt(x, m.idx[1])
	vs := volt(x, m.idx[2])
	if cgs := m.Cgs(); cgs > 0 {
		geq, ieq := capCompanion(cgs, state[0], state[1], ctx)
		v := vg - vs
		state[0] = v
		state[1] = geq*v - ieq
	}
	if cgd := m.Cgd(); cgd > 0 {
		geq, ieq := capCompanion(cgd, state[2], state[3], ctx)
		v := vg - vd
		state[2] = v
		state[3] = geq*v - ieq
	}
}

// stampACCaps adds the gate capacitances to the small-signal system.
func (m *MOSFET) stampACCaps(s *mna.ComplexSystem, omega float64) {
	if !m.hasCaps() {
		return
	}
	d, g, src := m.idx[0], m.idx[1], m.idx[2]
	if cgs := m.Cgs(); cgs > 0 {
		s.StampAdmittance(g, src, complex(0, omega*cgs))
	}
	if cgd := m.Cgd(); cgd > 0 {
		s.StampAdmittance(g, d, complex(0, omega*cgd))
	}
}
