package device

import (
	"fmt"

	"repro/internal/mna"
)

// Resistor is a linear two-terminal resistance.
type Resistor struct {
	base
	R float64 // ohms, must be > 0
}

// NewResistor returns a resistor named name of r ohms between nodes a and b.
func NewResistor(name, a, b string, r float64) *Resistor {
	if r <= 0 {
		panic(fmt.Sprintf("device: resistor %s with non-positive resistance %g", name, r))
	}
	return &Resistor{base: newBase(name, a, b), R: r}
}

// Clone implements Device.
func (r *Resistor) Clone() Device { return &Resistor{base: r.cloneBase(), R: r.R} }

// ScaleValue implements Scalable.
func (r *Resistor) ScaleValue(k float64) { r.R *= k }

// SetResistance retargets the resistor to r ohms. Changing a linear
// device's value invalidates any engine base snapshot stamped from it —
// sim.Engine.Retarget is the sanctioned caller and performs that
// invalidation; mutating R behind a live engine's back is not safe.
func (r *Resistor) SetResistance(rOhms float64) error {
	if !(rOhms > 0) { // rejects zero, negatives, and NaN
		return fmt.Errorf("device: resistor %s retargeted to non-positive resistance %g", r.Name(), rOhms)
	}
	r.R = rOhms
	return nil
}

// StampLinearMatrix implements LinearStamper.
func (r *Resistor) StampLinearMatrix(s *mna.System, _ *Context) {
	s.StampConductance(r.idx[0], r.idx[1], 1/r.R)
}

// StampLinearRHS implements LinearStamper: a resistor has no sources.
func (r *Resistor) StampLinearRHS(*mna.System, *Context) {}

// StampACBase implements ACSplitStamper.
func (r *Resistor) StampACBase(s *mna.ComplexSystem, _ []float64) {
	s.StampAdmittance(r.idx[0], r.idx[1], complex(1/r.R, 0))
}

// StampACReactive implements ACSplitStamper: a resistor is purely real.
func (r *Resistor) StampACReactive(*mna.ComplexSystem, []float64, float64) {}

// Current returns the current flowing from terminal a to terminal b for a
// given solution.
func (r *Resistor) Current(x []float64) float64 {
	return (volt(x, r.idx[0]) - volt(x, r.idx[1])) / r.R
}

// Capacitor is a linear two-terminal capacitance. In OP mode it is an
// open circuit; in transient mode it stamps a Norton companion model.
type Capacitor struct {
	base
	C float64 // farads, must be > 0
}

// NewCapacitor returns a capacitor named name of c farads between a and b.
func NewCapacitor(name, a, b string, c float64) *Capacitor {
	if c <= 0 {
		panic(fmt.Sprintf("device: capacitor %s with non-positive capacitance %g", name, c))
	}
	return &Capacitor{base: newBase(name, a, b), C: c}
}

// Clone implements Device.
func (c *Capacitor) Clone() Device { return &Capacitor{base: c.cloneBase(), C: c.C} }

// ScaleValue implements Scalable.
func (c *Capacitor) ScaleValue(k float64) { c.C *= k }

// NumStates implements Dynamic: state = [v(t_n), i(t_n)].
func (c *Capacitor) NumStates() int { return 2 }

// InitState implements Dynamic. At a DC operating point the capacitor
// current is zero.
func (c *Capacitor) InitState(x []float64, state []float64) {
	state[0] = volt(x, c.idx[0]) - volt(x, c.idx[1])
	state[1] = 0
}

// StampCompanionMatrix implements Dynamic: trapezoidal geq = 2C/dt or
// backward-Euler geq = C/dt, a function of the step size and method
// only.
func (c *Capacitor) StampCompanionMatrix(s *mna.System, ctx *Context) {
	geq := c.C / ctx.Dt
	if ctx.Integ == Trapezoidal {
		geq = 2 * c.C / ctx.Dt
	}
	s.StampConductance(c.idx[0], c.idx[1], geq)
}

// StampCompanionRHS implements Dynamic: trapezoidal Ieq = geq·v_n + i_n
// or backward-Euler Ieq = geq·v_n. The companion current Ieq flows from
// terminal b to a (source into the + node).
func (c *Capacitor) StampCompanionRHS(s *mna.System, state []float64, ctx *Context) {
	_, ieq := c.companion(state, ctx)
	s.StampCurrent(c.idx[1], c.idx[0], ieq)
}

func (c *Capacitor) companion(state []float64, ctx *Context) (geq, ieq float64) {
	switch ctx.Integ {
	case Trapezoidal:
		geq = 2 * c.C / ctx.Dt
		ieq = geq*state[0] + state[1]
	default: // BackwardEuler
		geq = c.C / ctx.Dt
		ieq = geq * state[0]
	}
	return geq, ieq
}

// Commit implements Dynamic: i_{n+1} = geq·v_{n+1} − Ieq.
func (c *Capacitor) Commit(x []float64, state []float64, ctx *Context) {
	geq, ieq := c.companion(state, ctx)
	v := volt(x, c.idx[0]) - volt(x, c.idx[1])
	state[0] = v
	state[1] = geq*v - ieq
}

// StampACBase implements ACSplitStamper: a capacitor is purely reactive.
func (c *Capacitor) StampACBase(*mna.ComplexSystem, []float64) {}

// StampACReactive implements ACSplitStamper with admittance jωC.
func (c *Capacitor) StampACReactive(s *mna.ComplexSystem, _ []float64, omega float64) {
	s.StampAdmittance(c.idx[0], c.idx[1], complex(0, omega*c.C))
}

// Inductor is a linear two-terminal inductance. It carries a branch
// unknown so the OP short circuit and the transient companion model are
// both well posed.
type Inductor struct {
	base
	L      float64 // henries, must be > 0
	branch int
}

// NewInductor returns an inductor named name of l henries between a and b.
func NewInductor(name, a, b string, l float64) *Inductor {
	if l <= 0 {
		panic(fmt.Sprintf("device: inductor %s with non-positive inductance %g", name, l))
	}
	return &Inductor{base: newBase(name, a, b), L: l, branch: -1}
}

// Clone implements Device.
func (l *Inductor) Clone() Device { return &Inductor{base: l.cloneBase(), L: l.L, branch: -1} }

// ScaleValue implements Scalable.
func (l *Inductor) ScaleValue(k float64) { l.L *= k }

// NumBranches implements Brancher.
func (l *Inductor) NumBranches() int { return 1 }

// SetBranchBase implements Brancher.
func (l *Inductor) SetBranchBase(base int) { l.branch = base }

// BranchBase implements Brancher.
func (l *Inductor) BranchBase() int { return l.branch }

// StampLinearMatrix implements LinearStamper. In OP mode the inductor is
// an ideal short, V(a) − V(b) = 0 with the branch current as unknown; the
// RHS entry is zero, so the matrix part is all there is. Transient
// stamping happens in StampCompanionMatrix and StampCompanionRHS.
func (l *Inductor) StampLinearMatrix(s *mna.System, ctx *Context) {
	if ctx.Mode != OP {
		return
	}
	br := l.branch
	s.Add(l.idx[0], br, 1)
	s.Add(l.idx[1], br, -1)
	s.Add(br, l.idx[0], 1)
	s.Add(br, l.idx[1], -1)
}

// StampLinearRHS implements LinearStamper.
func (l *Inductor) StampLinearRHS(*mna.System, *Context) {}

// NumStates implements Dynamic: state = [i(t_n), v(t_n)].
func (l *Inductor) NumStates() int { return 2 }

// InitState implements Dynamic.
func (l *Inductor) InitState(x []float64, state []float64) {
	state[0] = x[l.branch]
	state[1] = 0 // dc voltage across an inductor is zero
}

// StampCompanionMatrix implements Dynamic using the branch formulation:
// v = L·di/dt discretized as V(a) − V(b) − req·i = −veq, with req = 2L/dt
// (TR) or L/dt (BE). The branch pattern and req depend only on the step
// size and method.
func (l *Inductor) StampCompanionMatrix(s *mna.System, ctx *Context) {
	req := l.L / ctx.Dt
	if ctx.Integ == Trapezoidal {
		req = 2 * l.L / ctx.Dt
	}
	br := l.branch
	s.Add(l.idx[0], br, 1)
	s.Add(l.idx[1], br, -1)
	s.Add(br, l.idx[0], 1)
	s.Add(br, l.idx[1], -1)
	s.Add(br, br, -req)
}

// StampCompanionRHS implements Dynamic: veq = req·i_n + v_n (TR) or
// req·i_n (BE).
func (l *Inductor) StampCompanionRHS(s *mna.System, state []float64, ctx *Context) {
	_, veq := l.companion(state, ctx)
	s.AddRHS(l.branch, -veq)
}

func (l *Inductor) companion(state []float64, ctx *Context) (req, veq float64) {
	switch ctx.Integ {
	case Trapezoidal:
		req = 2 * l.L / ctx.Dt
		veq = req*state[0] + state[1]
	default:
		req = l.L / ctx.Dt
		veq = req * state[0]
	}
	return req, veq
}

// Commit implements Dynamic.
func (l *Inductor) Commit(x []float64, state []float64, ctx *Context) {
	i := x[l.branch]
	req, veq := l.companion(state, ctx)
	state[0] = i
	state[1] = req*i - veq
}

// StampACBase implements ACSplitStamper: the branch constraint pattern
// of V(a) − V(b) = jωL·i.
func (l *Inductor) StampACBase(s *mna.ComplexSystem, _ []float64) {
	br := l.branch
	s.Add(l.idx[0], br, 1)
	s.Add(l.idx[1], br, -1)
	s.Add(br, l.idx[0], 1)
	s.Add(br, l.idx[1], -1)
}

// StampACReactive implements ACSplitStamper: the −jωL branch impedance.
func (l *Inductor) StampACReactive(s *mna.ComplexSystem, _ []float64, omega float64) {
	s.Add(l.branch, l.branch, complex(0, -omega*l.L))
}
