package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/device"
	"repro/internal/mna"
)

// ACResult holds small-signal phasor solutions, one per analysis
// frequency.
type ACResult struct {
	Freqs     []float64
	solutions [][]complex128
	eng       *Engine
}

// Voltage returns the phasor voltage of a node at frequency point i.
func (r *ACResult) Voltage(i int, node string) complex128 {
	if circuitIsGround(node) {
		return 0
	}
	idx, ok := r.eng.layout.NodeIndex[node]
	if !ok {
		panic(fmt.Sprintf("sim: unknown node %q", node))
	}
	return r.solutions[i][idx]
}

// MagDB returns 20·log10 |V(node)| at frequency point i.
func (r *ACResult) MagDB(i int, node string) float64 {
	return 20 * math.Log10(cmplx.Abs(r.Voltage(i, node)))
}

// PhaseDeg returns the phase of V(node) in degrees at frequency point i.
func (r *ACResult) PhaseDeg(i int, node string) float64 {
	return cmplx.Phase(r.Voltage(i, node)) * 180 / math.Pi
}

func circuitIsGround(node string) bool {
	switch node {
	case "0", "gnd", "GND", "":
		return true
	}
	return false
}

// ACSweep holds the frequency-independent base of a small-signal
// analysis: the resistive linearization at the operating point plus the
// excitation drive, assembled once. Each frequency point restores the
// base by copy, adds only the jω terms, and factor-solves in place —
// allocation-free after construction.
//
// An ACSweep borrows the engine's operating-point linearization; it
// stays valid as long as the engine's devices are unchanged (the same
// linear-snapshot invariant the DC kernel relies on).
type ACSweep struct {
	eng   *Engine
	sys   *mna.ComplexSystem
	baseA []complex128
	baseB []complex128
	xop   []float64

	// split devices contribute to the base once and reactive terms per
	// point; legacy ACStampers are conservatively re-stamped per point.
	split  []device.ACSplitStamper
	legacy []device.ACStamper
}

// PrepareAC assembles the reusable base for a small-signal sweep driven
// by the named independent source with unit magnitude (1 V or 1 A).
// A nil input prepares an undriven base (zero RHS), used by the noise
// analysis which injects its own unit currents.
func (e *Engine) PrepareAC(xop []float64, input string) (*ACSweep, error) {
	var src device.Device
	if input != "" {
		src = e.ckt.Device(input)
		if src == nil {
			return nil, fmt.Errorf("sim: AC input %q not found", input)
		}
	}
	n := e.layout.Dim()
	sw := &ACSweep{
		eng:   e,
		sys:   mna.NewComplexSystem(n),
		baseA: make([]complex128, n*n),
		baseB: make([]complex128, n),
		xop:   append([]float64(nil), xop...),
	}
	for _, d := range e.ckt.Devices() {
		if sp, ok := d.(device.ACSplitStamper); ok {
			sw.split = append(sw.split, sp)
		} else if ac, ok := d.(device.ACStamper); ok {
			sw.legacy = append(sw.legacy, ac)
		}
	}

	sw.sys.Clear()
	for _, d := range sw.split {
		d.StampACBase(sw.sys, sw.xop)
	}
	if src != nil {
		switch s := src.(type) {
		case *device.VSource:
			sw.sys.AddRHS(s.BranchBase(), 1)
		case *device.ISource:
			terms := s.Terminals()
			sw.sys.StampCurrent(terms[1], terms[0], 1)
		default:
			return nil, fmt.Errorf("sim: AC input %q is not an independent source", input)
		}
	}
	sw.sys.SaveMatrix(sw.baseA)
	sw.sys.SaveRHS(sw.baseB)
	e.stats.Stamps += uint64(len(sw.split))
	e.flushStats()
	return sw, nil
}

// assembleAt restores the base matrix and adds the jω terms for omega.
// The base stamps only touch real parts and the reactive stamps only
// imaginary parts of any shared entry, so the result is bit-identical to
// a full per-point restamp.
func (sw *ACSweep) assembleAt(omega float64) {
	e := sw.eng
	sw.sys.SetMatrix(sw.baseA)
	for _, d := range sw.split {
		d.StampACReactive(sw.sys, sw.xop, omega)
	}
	for _, d := range sw.legacy {
		d.StampAC(sw.sys, sw.xop, omega)
	}
	e.stats.Stamps += uint64(len(sw.split) + len(sw.legacy))
}

// SolveAt solves the driven system at angular frequency omega into dst
// (length Dim()), allocating nothing.
func (sw *ACSweep) SolveAt(omega float64, dst []complex128) error {
	sw.assembleAt(omega)
	sw.sys.SetRHS(sw.baseB)
	sw.eng.stats.Factorizations++
	if err := sw.sys.FactorSolveInto(dst); err != nil {
		return err
	}
	return nil
}

// AC performs small-signal analysis linearized around a DC operating
// point. The named independent source is driven with a unit AC magnitude
// (1 V or 1 A); everything else is quiet. The frequency-independent part
// of the system is assembled and the drive stamped exactly once; each
// sweep point only adds the reactive terms.
func (e *Engine) AC(xop []float64, input string, freqs []float64) (*ACResult, error) {
	t0, pre := e.traceStart()
	defer e.traceEnd("ac", t0, pre)
	if input == "" {
		return nil, fmt.Errorf("sim: AC analysis needs an input source")
	}
	sw, err := e.PrepareAC(xop, input)
	if err != nil {
		return nil, err
	}
	n := e.layout.Dim()
	res := &ACResult{Freqs: freqs, eng: e}
	backing := make([]complex128, n*len(freqs))
	for i, f := range freqs {
		sol := backing[i*n : (i+1)*n : (i+1)*n]
		if err := sw.SolveAt(2*math.Pi*f, sol); err != nil {
			return nil, fmt.Errorf("sim: AC at %g Hz: %w", f, err)
		}
		res.solutions = append(res.solutions, sol)
	}
	e.flushStats()
	return res, nil
}

// LogSpace returns n logarithmically spaced frequencies from lo to hi
// inclusive, a convenience for Bode-style sweeps.
func LogSpace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	for i := range out {
		out[i] = math.Pow(10, llo+(lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

// LinSpace returns n linearly spaced values from lo to hi inclusive.
func LinSpace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}
