package device

import (
	"repro/internal/mna"
	"repro/internal/wave"
)

// VSource is an independent voltage source V(plus) − V(minus) = w(t),
// carrying one branch unknown whose solved value is the source current
// flowing into the plus terminal from inside the source (SPICE
// convention: positive current flows from plus, through the source, out
// of minus — the solved branch value is the current entering the plus
// node from the external circuit, negated).
type VSource struct {
	base
	W      wave.Waveform
	branch int
}

// NewVSource returns a voltage source between plus and minus driven by w.
func NewVSource(name, plus, minus string, w wave.Waveform) *VSource {
	return &VSource{base: newBase(name, plus, minus), W: w, branch: -1}
}

// NewDCVSource returns a constant voltage source.
func NewDCVSource(name, plus, minus string, v float64) *VSource {
	return NewVSource(name, plus, minus, wave.DC(v))
}

// Clone implements Device.
func (v *VSource) Clone() Device { return &VSource{base: v.cloneBase(), W: v.W, branch: -1} }

// NumBranches implements Brancher.
func (v *VSource) NumBranches() int { return 1 }

// SetBranchBase implements Brancher.
func (v *VSource) SetBranchBase(base int) { v.branch = base }

// BranchBase implements Brancher.
func (v *VSource) BranchBase() int { return v.branch }

// StampLinearMatrix implements LinearStamper: the branch constraint
// pattern, independent of the waveform.
func (v *VSource) StampLinearMatrix(s *mna.System, _ *Context) {
	br := v.branch
	s.Add(v.idx[0], br, 1)
	s.Add(v.idx[1], br, -1)
	s.Add(br, v.idx[0], 1)
	s.Add(br, v.idx[1], -1)
}

// StampLinearRHS implements LinearStamper: the source value at the
// assembly time, scaled for source stepping.
func (v *VSource) StampLinearRHS(s *mna.System, ctx *Context) {
	val := v.W.DC()
	if ctx.Mode == Transient {
		val = v.W.Value(ctx.Time)
	}
	s.AddRHS(v.branch, val*ctx.SrcScale)
}

// StampACBase implements ACSplitStamper. Independent sources are
// AC-quiet unless the analysis drives them as its input, so the branch
// enforces ΔV = 0: the RHS entry is zero and only the matrix pattern is
// stamped; the engine drives the excitation through the RHS separately.
func (v *VSource) StampACBase(s *mna.ComplexSystem, _ []float64) {
	br := v.branch
	s.Add(v.idx[0], br, 1)
	s.Add(v.idx[1], br, -1)
	s.Add(br, v.idx[0], 1)
	s.Add(br, v.idx[1], -1)
}

// StampACReactive implements ACSplitStamper.
func (v *VSource) StampACReactive(*mna.ComplexSystem, []float64, float64) {}

// Current returns the MNA branch variable: the current flowing into the
// plus terminal from the external circuit. For a supply that delivers
// current (e.g. Vdd at the top of a circuit) the value is negative;
// -Current is the delivered supply current.
func (v *VSource) Current(x []float64) float64 { return x[v.branch] }

// ISource is an independent current source pushing w(t) amperes into the
// plus terminal (out of minus, through the source, into plus).
type ISource struct {
	base
	W wave.Waveform
}

// NewISource returns a current source whose current w flows from minus to
// plus through the source (i.e. is injected into node plus).
func NewISource(name, plus, minus string, w wave.Waveform) *ISource {
	return &ISource{base: newBase(name, plus, minus), W: w}
}

// NewDCISource returns a constant current source.
func NewDCISource(name, plus, minus string, i float64) *ISource {
	return NewISource(name, plus, minus, wave.DC(i))
}

// Clone implements Device.
func (i *ISource) Clone() Device { return &ISource{base: i.cloneBase(), W: i.W} }

// StampLinearMatrix implements LinearStamper: a current source is pure RHS.
func (i *ISource) StampLinearMatrix(*mna.System, *Context) {}

// StampLinearRHS implements LinearStamper.
func (i *ISource) StampLinearRHS(s *mna.System, ctx *Context) {
	val := i.W.DC()
	if ctx.Mode == Transient {
		val = i.W.Value(ctx.Time)
	}
	s.StampCurrent(i.idx[1], i.idx[0], val*ctx.SrcScale)
}

// StampACBase implements ACSplitStamper: quiet in AC analysis.
func (i *ISource) StampACBase(*mna.ComplexSystem, []float64) {}

// StampACReactive implements ACSplitStamper.
func (i *ISource) StampACReactive(*mna.ComplexSystem, []float64, float64) {}

// VCVS is a linear voltage-controlled voltage source:
// V(p) − V(m) = Gain · (V(cp) − V(cm)). Terminal order: p, m, cp, cm.
type VCVS struct {
	base
	Gain   float64
	branch int
}

// NewVCVS returns an ideal voltage-controlled voltage source.
func NewVCVS(name, p, m, cp, cm string, gain float64) *VCVS {
	return &VCVS{base: newBase(name, p, m, cp, cm), Gain: gain, branch: -1}
}

// Clone implements Device.
func (e *VCVS) Clone() Device { return &VCVS{base: e.cloneBase(), Gain: e.Gain, branch: -1} }

// NumBranches implements Brancher.
func (e *VCVS) NumBranches() int { return 1 }

// SetBranchBase implements Brancher.
func (e *VCVS) SetBranchBase(base int) { e.branch = base }

// BranchBase implements Brancher.
func (e *VCVS) BranchBase() int { return e.branch }

// StampLinearMatrix implements LinearStamper.
func (e *VCVS) StampLinearMatrix(s *mna.System, _ *Context) {
	br := e.branch
	p, m, cp, cm := e.idx[0], e.idx[1], e.idx[2], e.idx[3]
	s.Add(p, br, 1)
	s.Add(m, br, -1)
	s.Add(br, p, 1)
	s.Add(br, m, -1)
	s.Add(br, cp, -e.Gain)
	s.Add(br, cm, e.Gain)
}

// StampLinearRHS implements LinearStamper.
func (e *VCVS) StampLinearRHS(*mna.System, *Context) {}

// StampACBase implements ACSplitStamper.
func (e *VCVS) StampACBase(s *mna.ComplexSystem, _ []float64) {
	br := e.branch
	p, m, cp, cm := e.idx[0], e.idx[1], e.idx[2], e.idx[3]
	s.Add(p, br, 1)
	s.Add(m, br, -1)
	s.Add(br, p, 1)
	s.Add(br, m, -1)
	s.Add(br, cp, complex(-e.Gain, 0))
	s.Add(br, cm, complex(e.Gain, 0))
}

// StampACReactive implements ACSplitStamper.
func (e *VCVS) StampACReactive(*mna.ComplexSystem, []float64, float64) {}

// VCCS is a linear voltage-controlled current source: a current
// Gm · (V(cp) − V(cm)) flows from p to m through the external circuit
// (injected into m). Terminal order: p, m, cp, cm.
type VCCS struct {
	base
	Gm float64
}

// NewVCCS returns an ideal transconductor.
func NewVCCS(name, p, m, cp, cm string, gm float64) *VCCS {
	return &VCCS{base: newBase(name, p, m, cp, cm), Gm: gm}
}

// Clone implements Device.
func (g *VCCS) Clone() Device { return &VCCS{base: g.cloneBase(), Gm: g.Gm} }

// StampLinearMatrix implements LinearStamper.
func (g *VCCS) StampLinearMatrix(s *mna.System, _ *Context) {
	s.StampVCCS(g.idx[0], g.idx[1], g.idx[2], g.idx[3], g.Gm)
}

// StampLinearRHS implements LinearStamper.
func (g *VCCS) StampLinearRHS(*mna.System, *Context) {}

// StampACBase implements ACSplitStamper.
func (g *VCCS) StampACBase(s *mna.ComplexSystem, _ []float64) {
	s.StampVCCS(g.idx[0], g.idx[1], g.idx[2], g.idx[3], complex(g.Gm, 0))
}

// StampACReactive implements ACSplitStamper.
func (g *VCCS) StampACReactive(*mna.ComplexSystem, []float64, float64) {}
