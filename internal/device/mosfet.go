package device

import (
	"fmt"

	"repro/internal/mna"
)

// MOSType distinguishes n-channel from p-channel transistors.
type MOSType int

const (
	// NMOS is an n-channel enhancement transistor.
	NMOS MOSType = iota
	// PMOS is a p-channel enhancement transistor.
	PMOS
)

// String returns "nmos" or "pmos".
func (t MOSType) String() string {
	if t == PMOS {
		return "pmos"
	}
	return "nmos"
}

// MOSModel holds the Shichman–Hodges (SPICE level-1) parameters shared by
// transistors of one flavour. VT0 is expressed for the n-channel
// convention; PMOS models carry a negative VT0.
type MOSModel struct {
	Type   MOSType
	VT0    float64 // threshold voltage (V); negative for PMOS
	KP     float64 // transconductance parameter k' = µ·Cox (A/V²)
	Lambda float64 // channel-length modulation (1/V)

	// Optional charge storage (see mosfetcap.go); zero values keep the
	// transistor purely static.
	Cox  float64 // gate-oxide capacitance (F/m²)
	CGSO float64 // gate-source overlap capacitance (F/m)
	CGDO float64 // gate-drain overlap capacitance (F/m)
}

// DefaultNMOSModel returns the n-channel model used by the IV-converter
// macro (0.7 V threshold, 120 µA/V²).
func DefaultNMOSModel() *MOSModel {
	return &MOSModel{Type: NMOS, VT0: 0.7, KP: 120e-6, Lambda: 0.05}
}

// DefaultPMOSModel returns the matching p-channel model (−0.8 V
// threshold, 40 µA/V²).
func DefaultPMOSModel() *MOSModel {
	return &MOSModel{Type: PMOS, VT0: -0.8, KP: 40e-6, Lambda: 0.1}
}

// MOSFET is a three-terminal (drain, gate, source) level-1 transistor.
// The bulk is assumed tied to the source (no body effect), which is how
// the macro's transistors are laid out.
type MOSFET struct {
	base
	Model *MOSModel
	W, L  float64 // channel width/length in metres
}

// NewMOSFET returns a transistor with terminals (drain, gate, source).
func NewMOSFET(name, d, g, s string, m *MOSModel, w, l float64) *MOSFET {
	if m == nil {
		panic("device: MOSFET requires a model")
	}
	if w <= 0 || l <= 0 {
		panic(fmt.Sprintf("device: MOSFET %s with non-positive geometry W=%g L=%g", name, w, l))
	}
	return &MOSFET{base: newBase(name, d, g, s), Model: m, W: w, L: l}
}

// Clone implements Device. The model is copied so corner scaling of a
// clone never mutates the original.
func (m *MOSFET) Clone() Device {
	mm := *m.Model
	return &MOSFET{base: m.cloneBase(), Model: &mm, W: m.W, L: m.L}
}

// Beta returns k'·W/L.
func (m *MOSFET) Beta() float64 { return m.Model.KP * m.W / m.L }

// mosEq holds the constants of one transistor's level-1 equations: β,
// the threshold V_T in the n-channel convention (positive for both
// flavours once mirror has mapped a PMOS into that convention) and λ.
// Stamp derives them on every call; a StampPlan derives them once.
type mosEq struct {
	beta, vt, lam float64
	pmos          bool
}

// eq returns the transistor's equation constants.
func (m *MOSFET) eq() mosEq {
	vt := m.Model.VT0
	if m.Model.Type == PMOS {
		vt = -vt // after the sign transform in mirror, thresholds are positive
	}
	return mosEq{beta: m.Beta(), vt: vt, lam: m.Model.Lambda, pmos: m.Model.Type == PMOS}
}

// ids evaluates the drain current and its partial derivatives for an
// n-channel-convention transistor with vds ≥ 0:
//
//	cutoff:  vgs ≤ VT              id = 0
//	triode:  vds < vgs − VT        id = β((vgs−VT)vds − vds²/2)(1+λvds)
//	sat:     vds ≥ vgs − VT        id = β/2 (vgs−VT)² (1+λvds)
func (q *mosEq) ids(vgs, vds float64) (id, gm, gds float64) {
	beta := q.beta
	lam := q.lam
	vov := vgs - q.vt
	if vov <= 0 {
		return 0, 0, 0
	}
	clm := 1 + lam*vds
	if vds < vov {
		// Triode region.
		id = beta * (vov*vds - 0.5*vds*vds) * clm
		gm = beta * vds * clm
		gds = beta*(vov-vds)*clm + beta*(vov*vds-0.5*vds*vds)*lam
	} else {
		// Saturation.
		id = 0.5 * beta * vov * vov * clm
		gm = beta * vov * clm
		gds = 0.5 * beta * vov * vov * lam
	}
	return id, gm, gds
}

// mirror maps terminal voltages (vd, vg, vs) to the effective (vgs,
// vds ≥ 0) of an n-channel-convention transistor; swapped reports that
// the effective drain is the source terminal.
func (q *mosEq) mirror(vd, vg, vs float64) (vgs, vds float64, swapped bool) {
	if q.pmos {
		// Work in the mirrored domain where the PMOS looks like an NMOS.
		vd, vg, vs = -vd, -vg, -vs
	}
	// The level-1 device is symmetric: if vds < 0, the physical source is
	// the terminal labelled drain.
	if vd < vs {
		vd, vs = vs, vd
		swapped = true
	}
	return vg - vs, vd - vs, swapped
}

// operating evaluates the transistor at terminal voltages (vd, vg, vs)
// and returns the drain current flowing into the drain terminal together
// with the linearization (gm, gds) referred to the ORIGINAL terminal
// order, plus the effective (vgs, vds) after source/drain swapping.
func (q *mosEq) operating(vd, vg, vs float64) (id, gm, gds, vgs, vds float64, swapped bool) {
	vgs, vds, swapped = q.mirror(vd, vg, vs)
	id, gm, gds = q.ids(vgs, vds)
	return id, gm, gds, vgs, vds, swapped
}

// companion returns the linearized Newton companion at terminal voltages
// (vd, vg, vs): the conductance gc = gds + gmin between the effective
// drain and source, the transconductance gm controlled by (gate,
// effective source), and the residual current cur that flows from the
// effective source into the effective drain. swapped reports that the
// effective drain is the source terminal.
func (q *mosEq) companion(vd, vg, vs, gmin float64) (gc, gm, cur float64, swapped bool) {
	vgs, vds, swapped := q.mirror(vd, vg, vs)
	id, gm, gds := q.ids(vgs, vds)
	// Residual current in the mirrored domain flows ed -> es:
	// Ieq = I0 − gm·vgs0 − gds·vds0 with primed (mirrored) voltages.
	ieq := id - gm*vgs - gds*vds
	// Under the PMOS mirror the conductance and VCCS stamps are invariant
	// (double sign flip), but the residual current changes sign.
	cur = -ieq
	if q.pmos {
		cur = ieq
	}
	return gds + gmin, gm, cur, swapped
}

// operating evaluates the transistor at the node voltages in x (see
// mosEq.operating).
func (m *MOSFET) operating(x []float64) (id, gm, gds, vgs, vds float64, swapped bool) {
	q := m.eq()
	return q.operating(volt(x, m.idx[0]), volt(x, m.idx[1]), volt(x, m.idx[2]))
}

// Stamp implements Stamper with the standard linearized MOSFET companion:
// conductance gds between drain and source, transconductance gm
// controlled by (gate, source), and the residual current source. A
// StampPlan makes the same additions through precomputed offsets.
func (m *MOSFET) Stamp(s *mna.System, x []float64, ctx *Context) {
	d, g, src := m.idx[0], m.idx[1], m.idx[2]
	q := m.eq()
	gc, gm, cur, swapped := q.companion(volt(x, d), volt(x, g), volt(x, src), ctx.Gmin)
	ed, es := d, src
	if swapped {
		ed, es = src, d
	}
	s.StampConductance(ed, es, gc)
	s.StampVCCS(ed, es, g, es, gm)
	s.StampCurrent(es, ed, cur)
}

// StampACBase implements ACSplitStamper: the resistive small-signal
// model at the DC operating point, gds in parallel with a gm-VCCS. This
// is the expensive part of the AC stamp (it re-evaluates the transistor
// at the operating point), and the part the cached sweep base assembles
// exactly once.
func (m *MOSFET) StampACBase(s *mna.ComplexSystem, xop []float64) {
	d, g, src := m.idx[0], m.idx[1], m.idx[2]
	_, gm, gds, _, _, swapped := m.operating(xop)
	ed, es := d, src
	if swapped {
		ed, es = src, d
	}
	s.StampAdmittance(ed, es, complex(gds, 0))
	s.StampVCCS(ed, es, g, es, complex(gm, 0))
}

// StampACReactive implements ACSplitStamper: the gate capacitances, when
// the model carries them.
func (m *MOSFET) StampACReactive(s *mna.ComplexSystem, _ []float64, omega float64) {
	m.stampACCaps(s, omega)
}

// DrainCurrent returns the current flowing into the drain terminal at the
// given solution (negative for PMOS conducting "upward").
func (m *MOSFET) DrainCurrent(x []float64) float64 {
	id, _, _, _, _, swapped := m.operating(x)
	sign := 1.0
	if m.Model.Type == PMOS {
		sign = -sign
	}
	if swapped {
		sign = -sign
	}
	return sign * id
}

// Region reports the operating region at solution x: "off", "triode" or
// "sat", for diagnostics and tests.
func (m *MOSFET) Region(x []float64) string {
	_, _, _, vgs, vds, _ := m.operating(x)
	vt := m.eq().vt
	switch {
	case vgs-vt <= 0:
		return "off"
	case vds < vgs-vt:
		return "triode"
	default:
		return "sat"
	}
}

// SaturationMargin returns vds − (vgs − VT) at solution x; positive in
// saturation.
func (m *MOSFET) SaturationMargin(x []float64) float64 {
	_, _, _, vgs, vds, _ := m.operating(x)
	return vds - (vgs - m.eq().vt)
}

// Gm returns the small-signal transconductance at solution x, used by
// noise analysis and diagnostics.
func (m *MOSFET) Gm(x []float64) float64 {
	_, gm, _, _, _, _ := m.operating(x)
	return gm
}
