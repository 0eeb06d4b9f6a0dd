package sim

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/mna"
)

// This file is the engine half of the low-rank fault fast path. A fault
// that is a rank-k conductance perturbation (internal/fault.LowRankFault)
// registers itself once via EnableLowRank; the impact search then calls
// Retarget per ladder step instead of rebuilding a faulty circuit, and —
// on circuits whose matrix does not depend on the solution (no nonlinear
// devices) — operating points are served by mna.SolveRankK against one
// retained factorization of the faulty base. AC sweeps get the same
// treatment per frequency point through ACFaultSweep.
//
// On nonlinear circuits the matrix changes every Newton iteration, so a
// Woodbury update against a frozen base cannot reproduce the Newton
// trajectory; there Retarget still pays off by reusing the engine (and
// its snapshots/caches) across impact steps, with each solve restamping
// at the current resistance — bit-identical to a freshly built engine by
// construction, because stamping order and arithmetic are unchanged.

// Perturb describes a registered low-rank fault perturbation: branch m
// couples unknowns (RowA[m], RowB[m]) — −1 is ground — and Vals maps an
// impact resistance to the per-branch conductances. Vals may reuse its
// result slice; the engine copies what it retains.
type Perturb struct {
	// Device is the name of the fault resistor whose resistance equals
	// the impact; Retarget calls on this device update the perturbation
	// instead of invalidating the retained factorization.
	Device string
	RowA   []int
	RowB   []int
	Vals   func(impact float64) []float64
}

// lowRank is the engine-side state of one registered perturbation.
type lowRank struct {
	p      Perturb
	dev    *device.Resistor
	impact float64 // current impact (mirrors dev.R)

	// Retained faulty base for matrix-invariant (linear) circuits: the
	// full linear stamp at gBase, factored once and updated per solve.
	base  *mna.System
	facOK bool
	gBase []float64
	dg    []float64
}

// Retarget sets the resistance of the named resistor and invalidates the
// engine's linear snapshots, so the next solve restamps from the updated
// value. This is the sanctioned way to vary one resistor on a live
// engine (the impact ladder's per-step mutation): results are
// bit-identical to building a fresh engine on an identically valued
// circuit, because the restamp replays the same devices in the same
// order from a zeroed matrix.
func (e *Engine) Retarget(name string, r float64) error {
	d := e.ckt.Device(name)
	if d == nil {
		return fmt.Errorf("sim: retarget: device %q not found", name)
	}
	res, ok := d.(*device.Resistor)
	if !ok {
		return fmt.Errorf("sim: retarget: device %q is a %T, want resistor", name, d)
	}
	if res.R == r {
		// Nothing changes; keep every snapshot and factorization warm.
		if e.lr != nil && e.lr.p.Device == name {
			e.lr.impact = r
		}
		return nil
	}
	if err := res.SetResistance(r); err != nil {
		return err
	}
	for i := range e.baseOK {
		e.baseOK[i] = false
	}
	if e.lr != nil {
		if e.lr.p.Device == name {
			// The registered fault branch moved: the retained base stays
			// valid, the delta is absorbed by the rank-k update.
			e.lr.impact = r
		} else {
			// Some other linear value changed under the retained base.
			e.lr.facOK = false
		}
	}
	return nil
}

// EnableLowRank registers a fault perturbation with the engine. After
// registration, Retarget calls on p.Device keep the retained faulty-base
// factorization valid, and — when the circuit has no nonlinear devices —
// operating points go through the Sherman–Morrison–Woodbury path.
func (e *Engine) EnableLowRank(p Perturb) error {
	k := len(p.Vals(1))
	if k == 0 || len(p.RowA) != k || len(p.RowB) != k {
		return fmt.Errorf("sim: low-rank perturbation with %d branches, %d/%d indices",
			k, len(p.RowA), len(p.RowB))
	}
	n := e.layout.Dim()
	for m := 0; m < k; m++ {
		if p.RowA[m] < -1 || p.RowA[m] >= n || p.RowB[m] < -1 || p.RowB[m] >= n {
			return fmt.Errorf("sim: low-rank branch %d indices (%d,%d) out of range for dim %d",
				m, p.RowA[m], p.RowB[m], n)
		}
	}
	d := e.ckt.Device(p.Device)
	if d == nil {
		return fmt.Errorf("sim: low-rank device %q not found", p.Device)
	}
	res, ok := d.(*device.Resistor)
	if !ok {
		return fmt.Errorf("sim: low-rank device %q is a %T, want resistor", p.Device, d)
	}
	e.lr = &lowRank{
		p:      p,
		dev:    res,
		impact: res.R,
		base:   mna.NewSystem(n),
		gBase:  make([]float64, k),
		dg:     make([]float64, k),
	}
	return nil
}

// LowRankEnabled reports whether a perturbation is registered.
func (e *Engine) LowRankEnabled() bool { return e.lr != nil }

// WoodburyServes reports whether operating points (standalone or as a
// transient's starting point) go through the Woodbury update against
// the retained base. Such a solve depends on the impact at which the
// base was factored, not only on the circuit's current values, so it is
// not interchangeable with a fresh engine's solve bit for bit.
func (e *Engine) WoodburyServes() bool { return e.lr != nil && e.matrixInvariant() }

// matrixInvariant reports whether the engine's OP matrix is independent
// of the solution estimate: no nonlinear stampers. Only then is one
// retained factorization valid for every Newton "iteration" — the solve
// collapses to a single linear solve.
func (e *Engine) matrixInvariant() bool {
	return len(e.nonlinears) == 0
}

// woodburyOP serves an operating point through the rank-k update against
// the retained faulty base. Only called when e.lr != nil and the matrix
// is solution-invariant. On ErrUpdateUnstable (or any failure) the
// retained state is dropped and the caller falls back to the full
// strategy, counting a WoodburyFallback.
func (e *Engine) woodburyOP(x []float64) error {
	lr := e.lr
	ctx := &e.ctx
	*ctx = device.Context{Mode: device.OP, SrcScale: 1, Gmin: e.opts.GminFloor}
	if !lr.facOK {
		lr.base.ClearMatrix()
		for _, ls := range e.linears {
			ls.StampLinearMatrix(lr.base, ctx)
		}
		e.stats.Stamps += uint64(len(e.linears))
		if err := lr.base.Factor(); err != nil {
			return err
		}
		e.stats.Factorizations++
		copy(lr.gBase, lr.p.Vals(lr.impact))
		lr.facOK = true
	} else {
		e.stats.FaultyFactorAvoided++
	}
	e.buildRHSBase(nil, ctx)
	lr.base.SetRHS(e.baseB)
	g := lr.p.Vals(lr.impact)
	for m := range g {
		lr.dg[m] = g[m] - lr.gBase[m]
	}
	if err := lr.base.SolveRankKInto(e.xs, lr.p.RowA, lr.p.RowB, lr.dg); err != nil {
		return err
	}
	for _, v := range e.xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return mna.ErrUpdateUnstable
		}
	}
	copy(x, e.xs)
	e.stats.WoodburySolves++
	e.stats.Solves++
	e.flushStats()
	return nil
}

// ACFaultSweep retains one factored complex base per frequency point of
// a small-signal sweep, so an impact search re-solves the whole sweep
// for many fault resistances at O(n²) per point instead of refactoring:
// the cached complex base is reused across both frequency points and
// impact steps. Valid for matrix-invariant (linear) circuits, whose AC
// linearization does not depend on the operating point.
type ACFaultSweep struct {
	eng     *Engine
	sw      *ACSweep
	freqs   []float64
	omegas  []float64
	sys     []*mna.ComplexSystem
	gBase   []float64
	dy      []complex128
	scratch []complex128
}

// Freqs returns the sweep's frequency grid.
func (fs *ACFaultSweep) Freqs() []float64 { return fs.freqs }

// PrepareFaultAC builds the retained per-frequency factorizations for an
// AC impact search driven by the named source. It requires EnableLowRank
// to have registered the fault branch and a matrix-invariant circuit;
// the retained bases are stamped at the current impact.
func (e *Engine) PrepareFaultAC(xop []float64, input string, freqs []float64) (*ACFaultSweep, error) {
	if e.lr == nil {
		return nil, fmt.Errorf("sim: PrepareFaultAC without a registered low-rank perturbation")
	}
	if !e.matrixInvariant() {
		return nil, fmt.Errorf("sim: PrepareFaultAC on a nonlinear circuit: AC linearization depends on the fault through the operating point")
	}
	sw, err := e.PrepareAC(xop, input)
	if err != nil {
		return nil, err
	}
	n := e.layout.Dim()
	k := len(e.lr.gBase)
	fs := &ACFaultSweep{
		eng:     e,
		sw:      sw,
		freqs:   append([]float64(nil), freqs...),
		omegas:  make([]float64, len(freqs)),
		sys:     make([]*mna.ComplexSystem, len(freqs)),
		gBase:   make([]float64, k),
		dy:      make([]complex128, k),
		scratch: make([]complex128, n*n),
	}
	copy(fs.gBase, e.lr.p.Vals(e.lr.impact))
	for i, f := range freqs {
		fs.omegas[i] = 2 * math.Pi * f
		sw.assembleAt(fs.omegas[i])
		sw.sys.SaveMatrix(fs.scratch)
		cs := mna.NewComplexSystem(n)
		cs.SetMatrix(fs.scratch)
		if err := cs.Factor(); err != nil {
			return nil, fmt.Errorf("sim: fault AC base at %g Hz: %w", f, err)
		}
		e.stats.Factorizations++
		fs.sys[i] = cs
	}
	e.flushStats()
	return fs, nil
}

// Solve computes the sweep at the engine's current impact (set via
// Retarget) into dst, one length-Dim() phasor slice per frequency.
// Points whose update trips the guard fall back to a fresh assemble+
// factor at the current device values; the retained base stays in place
// for the next impact. Allocation-free after construction.
func (fs *ACFaultSweep) Solve(dst [][]complex128) error {
	e := fs.eng
	if len(dst) != len(fs.freqs) {
		return fmt.Errorf("sim: fault AC solve into %d slots for %d frequencies", len(dst), len(fs.freqs))
	}
	g := e.lr.p.Vals(e.lr.impact)
	for m := range g {
		fs.dy[m] = complex(g[m]-fs.gBase[m], 0)
	}
	for i, cs := range fs.sys {
		cs.SetRHS(fs.sw.baseB)
		err := cs.SolveRankKInto(dst[i], e.lr.p.RowA, e.lr.p.RowB, fs.dy)
		if err == nil {
			e.stats.WoodburySolves++
			e.stats.FaultyFactorAvoided++
			continue
		}
		e.stats.WoodburyFallbacks++
		// Full fallback: the devices already carry the current impact, so
		// a fresh assemble+factor at this point is the ground truth.
		if err := fs.sw.SolveAt(fs.omegas[i], dst[i]); err != nil {
			e.flushStats()
			return fmt.Errorf("sim: fault AC fallback at %g Hz: %w", fs.freqs[i], err)
		}
	}
	e.flushStats()
	return nil
}
