package device

import (
	"math"

	"repro/internal/mna"
)

// DiodeModel holds the parameters of the exponential junction diode.
type DiodeModel struct {
	IS float64 // saturation current (A)
	N  float64 // emission coefficient
	VT float64 // thermal voltage (V)
}

// DefaultDiodeModel returns a generic silicon junction model at 300 K.
func DefaultDiodeModel() *DiodeModel {
	return &DiodeModel{IS: 1e-14, N: 1, VT: 0.02585}
}

// Diode is a two-terminal exponential junction (anode, cathode).
type Diode struct {
	base
	Model *DiodeModel
}

// NewDiode returns a diode from anode a to cathode k. A nil model gets
// the default silicon parameters.
func NewDiode(name, a, k string, m *DiodeModel) *Diode {
	if m == nil {
		m = DefaultDiodeModel()
	}
	return &Diode{base: newBase(name, a, k), Model: m}
}

// Clone implements Device. The model is copied so corner scaling of a
// clone never mutates the original.
func (d *Diode) Clone() Device {
	m := *d.Model
	return &Diode{base: d.cloneBase(), Model: &m}
}

// diodeEq holds the constants of one junction's equations: I_S, n·V_T
// and the point 40·n·V_T above which the exponential continues
// linearly. Stamp derives them on every call; a StampPlan derives them
// once.
type diodeEq struct {
	is, nvt, vmax float64
}

// eq returns the diode's equation constants.
func (d *Diode) eq() diodeEq {
	nvt := d.Model.N * d.Model.VT
	return diodeEq{is: d.Model.IS, nvt: nvt, vmax: nvt * 40}
}

// current returns (id, gd) at junction voltage v with exponent limiting
// to keep Newton iterations finite.
func (q *diodeEq) current(v float64) (id, gd float64) {
	// Limit the exponent: above vmax the exponential is continued
	// linearly, which preserves C1 continuity and prevents overflow.
	if v > q.vmax {
		e := math.Exp(40)
		id = q.is * (e*(1+(v-q.vmax)/q.nvt) - 1)
		gd = q.is * e / q.nvt
		return id, gd
	}
	e := math.Exp(v / q.nvt)
	id = q.is * (e - 1)
	gd = q.is * e / q.nvt
	return id, gd
}

// companion returns the linearized Norton companion at junction voltage
// v: the conductance geq = gd + gmin and the residual current
// ieq = id0 − gd·v0 from anode to cathode.
func (q *diodeEq) companion(v, gmin float64) (geq, ieq float64) {
	id, gd := q.current(v)
	return gd + gmin, id - gd*v
}

// current evaluates the junction at voltage v (see diodeEq.current).
func (d *Diode) current(v float64) (id, gd float64) {
	q := d.eq()
	return q.current(v)
}

// Stamp implements Stamper with the linearized Norton companion:
// i ≈ id0 + gd·(v − v0), stamped as conductance gd plus the residual
// current id0 − gd·v0 from anode to cathode. A StampPlan makes the same
// additions through precomputed offsets.
func (d *Diode) Stamp(s *mna.System, x []float64, ctx *Context) {
	a, k := d.idx[0], d.idx[1]
	q := d.eq()
	geq, ieq := q.companion(volt(x, a)-volt(x, k), ctx.Gmin)
	s.StampConductance(a, k, geq)
	s.StampCurrent(a, k, ieq)
}

// StampACBase implements ACSplitStamper with the small-signal
// conductance at the operating point.
func (d *Diode) StampACBase(s *mna.ComplexSystem, xop []float64) {
	v := volt(xop, d.idx[0]) - volt(xop, d.idx[1])
	_, gd := d.current(v)
	s.StampAdmittance(d.idx[0], d.idx[1], complex(gd, 0))
}

// StampACReactive implements ACSplitStamper: the junction is modelled
// without capacitance.
func (d *Diode) StampACReactive(*mna.ComplexSystem, []float64, float64) {}

// Current returns the diode current at the given solution.
func (d *Diode) Current(x []float64) float64 {
	v := volt(x, d.idx[0]) - volt(x, d.idx[1])
	id, _ := d.current(v)
	return id
}
