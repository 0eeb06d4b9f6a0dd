// Package sim runs analyses on compiled circuits: DC operating point
// (Newton–Raphson with gmin and source stepping), DC sweeps, transient
// simulation with trapezoidal/backward-Euler companion models, and
// small-signal AC. It is the in-repo replacement for the HSPICE runs the
// paper relied on.
//
// The analyses share a split-stamp kernel: device stamps are separated
// into a linear part assembled once per analysis configuration and
// restored by copy, and a nonlinear delta re-stamped every Newton
// iteration. Together with the in-place factor/solve APIs of
// internal/mna, the steady-state Newton iteration allocates nothing.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/failpoint"
	"repro/internal/mna"
)

// fpOpNoConv forces operating-point non-convergence. Armed ":once" the
// first solve fails and the recovery ladder's first rung succeeds
// (exercising recovery); armed without a limit every rung fails too,
// exhausting the ladder. The site sits at the top of the three-stage
// strategy — one atomic load per OP solve, nothing per Newton
// iteration — so the disabled cost stays inside the <2% budget of
// BenchmarkNewtonLinearSweep32.
var fpOpNoConv = failpoint.At("sim.op.noconv")

// ErrNoConvergence is returned when Newton iteration fails to converge
// even with gmin and source stepping.
var ErrNoConvergence = errors.New("sim: no convergence")

// Options tunes the nonlinear solver. The zero value is not useful; use
// DefaultOptions.
type Options struct {
	// AbsTol / RelTol form the per-unknown Newton convergence criterion
	// |Δx| ≤ AbsTol + RelTol·|x|.
	AbsTol float64
	RelTol float64
	// MaxIter bounds Newton iterations per solve.
	MaxIter int
	// MaxStep clamps the per-iteration update of any unknown (voltage
	// limiting); 0 disables clamping.
	MaxStep float64
	// GminFloor is the convergence-aid conductance left in place even
	// after gmin stepping finishes.
	GminFloor float64
	// GshuntStart is the initial node-to-ground shunt for gmin stepping.
	GshuntStart float64
	// Recovery is the escalation ladder tried when the full operating-
	// point strategy (Newton, gmin stepping, source stepping) fails: each
	// rung reruns the strategy under relaxed settings. Nil disables the
	// ladder, reproducing the pre-ladder solver exactly.
	Recovery []Relaxation
	// Probe, when non-nil, observes the engine's analyses: solver
	// counters, per-analysis histograms and the trace hook (stats.go).
	// Nil runs unobserved.
	Probe *Probe
}

// DefaultOptions returns the solver settings used throughout the repo:
// no recovery ladder, no probe.
func DefaultOptions() Options {
	return Options{
		AbsTol:      1e-9,
		RelTol:      1e-6,
		MaxIter:     150,
		MaxStep:     0.5,
		GminFloor:   1e-12,
		GshuntStart: 1e-3,
	}
}

// baseKey identifies one cached linear-matrix snapshot. The linear
// stamps may depend on the analysis mode, and the companion conductances
// on the step size and integration method — never on time, source scale,
// state, or the Newton estimate, which is exactly what makes the
// snapshot reusable across iterations and steps.
type baseKey struct {
	mode  device.Mode
	dt    float64
	integ device.Integration
}

// numBaseSlots is how many linear snapshots an engine keeps, replaced
// round-robin, so a transient that alternates between two step
// configurations keeps both.
const numBaseSlots = 2

// Engine owns the scratch state for analyses on one compiled circuit.
// An Engine is not safe for concurrent use; clone the circuit and build
// one engine per goroutine.
//
// The engine caches snapshots of the linear part of the MNA matrix. The
// snapshots assume the linear-snapshot invariant: linear device
// parameters (R, C, L, gains, branch wiring) must not change between
// solves on one engine. The stamp plans extend it to the nonlinear
// devices: a MOSFET's model and geometry and a diode's model must not
// change either. Structural edits or value scaling require a new
// engine (Retarget is the one sanctioned resistor change); swapping
// source waveforms (as SweepDC does) only affects the right-hand side
// and is safe.
type Engine struct {
	ckt    *circuit.Circuit
	layout *circuit.Layout
	sys    *mna.System
	opts   Options

	// Split-stamp classification, each list in device order. A device
	// may appear in two lists (a MOSFET with gate caps is a nonlinear
	// static stamper and a dynamic).
	linears    []device.LinearStamper // x-independent static stamps
	nonlinears []device.Stamper       // re-stamped every iteration
	// plans holds the precompiled stamps of nonlinears, one slab in the
	// same order; a BJT has no plan and stamps itself.
	plans []device.StampPlan
	// dynamics lists the devices with state; their companion G goes into
	// the base.
	dynamics []device.Dynamic
	stateOff []int // parallel to dynamics
	stateLen int

	// Linear matrix snapshots, keyed and evicted round-robin.
	baseA    [numBaseSlots][]float64
	baseKeys [numBaseSlots]baseKey
	baseOK   [numBaseSlots]bool
	baseNext int

	// Per-solve scratch, reused so the steady state allocates nothing.
	baseB  []float64 // linear + companion RHS, rebuilt once per solve
	xs     []float64 // Newton solution
	prevX  []float64 // source-stepping rollback
	trialX []float64 // transient trial vector
	ctx    device.Context
	// Transient probes resolved per run: unknown indices (-1: ground)
	// and the trace slices they fill.
	probeIdx []int
	probeSig [][]float64

	stats   Counters
	flushed Counters // portion of stats already added to opts.Probe
}

// New compiles the circuit (if needed) and returns an engine.
func New(ckt *circuit.Circuit, opts Options) (*Engine, error) {
	layout, err := ckt.Compile()
	if err != nil {
		return nil, err
	}
	n := layout.Dim()
	e := &Engine{
		ckt:    ckt,
		layout: layout,
		sys:    mna.NewSystem(n),
		opts:   opts,
		baseB:  make([]float64, n),
		xs:     make([]float64, n),
		prevX:  make([]float64, n),
		trialX: make([]float64, n),
	}
	for i := range e.baseA {
		e.baseA[i] = make([]float64, n*n)
	}
	for _, d := range ckt.Devices() {
		switch st := d.(type) {
		case device.LinearStamper:
			e.linears = append(e.linears, st)
		case device.Stamper:
			e.nonlinears = append(e.nonlinears, st)
		}
		// A dynamic without states has nothing to stamp or commit.
		if dy, ok := d.(device.Dynamic); ok {
			if k := dy.NumStates(); k > 0 {
				e.dynamics = append(e.dynamics, dy)
				e.stateOff = append(e.stateOff, e.stateLen)
				e.stateLen += k
			}
		}
	}
	e.plans = make([]device.StampPlan, len(e.nonlinears))
	for i, st := range e.nonlinears {
		e.plans[i], _ = device.NewStampPlan(st, n)
	}
	return e, nil
}

// Circuit returns the engine's circuit.
func (e *Engine) Circuit() *circuit.Circuit { return e.ckt }

// Layout returns the compiled layout.
func (e *Engine) Layout() *circuit.Layout { return e.layout }

// Voltage reads a node voltage from a solution vector.
func (e *Engine) Voltage(x []float64, node string) float64 {
	return e.ckt.NodeVoltage(x, node)
}

// Stats returns the engine's accumulated solver counters.
func (e *Engine) Stats() Counters { return e.stats }

// linearBase returns the cached linear-matrix snapshot for the analysis
// configuration in ctx, assembling it on a cache miss.
func (e *Engine) linearBase(ctx *device.Context) []float64 {
	key := baseKey{mode: ctx.Mode, dt: ctx.Dt, integ: ctx.Integ}
	for i := range e.baseA {
		if e.baseOK[i] && e.baseKeys[i] == key {
			e.stats.BaseHits++
			return e.baseA[i]
		}
	}
	slot := e.baseNext
	e.baseNext = (e.baseNext + 1) % numBaseSlots

	e.sys.ClearMatrix()
	for _, ls := range e.linears {
		ls.StampLinearMatrix(e.sys, ctx)
	}
	if ctx.Mode == device.Transient {
		for _, dy := range e.dynamics {
			dy.StampCompanionMatrix(e.sys, ctx)
		}
	}
	e.sys.SaveMatrix(e.baseA[slot])
	e.baseKeys[slot] = key
	e.baseOK[slot] = true
	e.stats.BaseBuilds++
	e.stats.Stamps += uint64(len(e.linears) + len(e.dynamics))
	return e.baseA[slot]
}

// buildRHSBase assembles the x-independent right-hand side (source
// values at the assembly time plus companion currents from the committed
// state) into e.baseB. Rebuilt once per solve: within one Newton solve,
// time, source scale, and state are all frozen.
func (e *Engine) buildRHSBase(state []float64, ctx *device.Context) {
	e.sys.ClearRHS()
	for _, ls := range e.linears {
		ls.StampLinearRHS(e.sys, ctx)
	}
	if ctx.Mode == device.Transient {
		for i, dy := range e.dynamics {
			off := e.stateOff[i]
			dy.StampCompanionRHS(e.sys, state[off:off+dy.NumStates()], ctx)
		}
	}
	e.sys.SaveRHS(e.baseB)
	e.stats.Stamps += uint64(len(e.linears) + len(e.dynamics))
}

// solveNewton iterates the system to convergence, updating x in place.
// It is the single Newton loop behind the operating point, DC sweeps,
// and the transient steppers: state is nil for static (OP) solves.
// gshunt, when positive, adds a conductance from every node unknown to
// ground (the gmin-stepping shunt).
//
// Per iteration the linear base is restored by copy and only the
// nonlinear devices re-stamp, through their plans where they have one;
// the factor/solve runs in place. Nothing on this path allocates once
// the engine is warm.
func (e *Engine) solveNewton(x, state []float64, ctx *device.Context, gshunt float64) error {
	err := e.newtonLoop(x, state, ctx, gshunt)
	e.stats.Solves++
	return err
}

func (e *Engine) newtonLoop(x, state []float64, ctx *device.Context, gshunt float64) error {
	n, nodes := e.layout.Dim(), e.layout.NumNodes
	maxStep, absTol, relTol := e.opts.MaxStep, e.opts.AbsTol, e.opts.RelTol
	xs, x := e.xs[:n], x[:n]
	base := e.linearBase(ctx)
	e.buildRHSBase(state, ctx)
	perIter := uint64(len(e.nonlinears))

	for it := 0; it < e.opts.MaxIter; it++ {
		e.stats.NewtonIterations++
		e.stats.Stamps += perIter
		e.sys.SetMatrix(base)
		e.sys.SetRHS(e.baseB)
		// FactorSolveInto recycles the matrix buffer, so fetch it anew.
		a, b := e.sys.Buffers()
		for i, st := range e.nonlinears {
			if p := &e.plans[i]; p.Valid() {
				p.Stamp(a, b, x, ctx.Gmin)
			} else {
				st.Stamp(e.sys, x, ctx)
			}
		}
		if gshunt > 0 {
			for i := 0; i < nodes; i++ {
				e.sys.Add(i, i, gshunt)
			}
		}
		reused, err := e.sys.FactorSolveInto(xs)
		if err != nil {
			return err
		}
		if reused {
			e.stats.FactorReuses++
		} else {
			e.stats.Factorizations++
		}
		conv := true
		for i, xi := range xs {
			dx := xi - x[i]
			limit := maxStep
			if i >= nodes {
				// Branch currents are not voltage-limited: clamping them
				// only slows convergence.
				limit = 0
			}
			if limit > 0 && math.Abs(dx) > limit {
				dx = math.Copysign(limit, dx)
				x[i] += dx
			} else {
				// Accept the solver output exactly rather than x+(xs−x),
				// whose rounding keeps x dithering by ulps around the
				// solution. Landing bitwise on the fixed point lets the
				// same-pattern factorization reuse in FactorSolveInto fire
				// on steady-state re-solves.
				x[i] = xi
			}
			if math.Abs(dx) > absTol+relTol*math.Abs(x[i]) {
				conv = false
			}
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				return fmt.Errorf("%w: solution diverged at unknown %d", ErrNoConvergence, i)
			}
		}
		if conv && it > 0 {
			return nil
		}
	}
	return fmt.Errorf("%w: %d Newton iterations exhausted", ErrNoConvergence, e.opts.MaxIter)
}

// OperatingPoint solves the DC operating point from a cold start and
// returns a freshly allocated solution. The strategy is the SPICE
// classic: plain Newton from a zero guess, then gmin stepping, then
// source stepping.
func (e *Engine) OperatingPoint() ([]float64, error) {
	x := make([]float64, e.layout.Dim())
	if err := e.OperatingPointInto(x); err != nil {
		return nil, err
	}
	return x, nil
}

// OperatingPointInto solves the DC operating point into x (length
// Dim()), allocating nothing. x doubles as the initial Newton guess: a
// zeroed x reproduces OperatingPoint's cold start, while a previous
// solution gives the warm re-solve the optimizers' repeated evaluations
// want. The gmin/source-stepping fallbacks restart from zero as before.
//
// If the full strategy fails and Options.Recovery is non-nil, each rung
// of the ladder reruns the strategy from a zero guess under the rung's
// relaxed settings; the first converging rung wins. With a nil ladder
// the behavior is identical to the pre-ladder solver.
func (e *Engine) OperatingPointInto(x []float64) error {
	t0, pre := e.traceStart()
	defer e.traceEnd("op", t0, pre)
	err := e.solveOperatingPoint(x)
	if err == nil || len(e.opts.Recovery) == 0 {
		return err
	}
	saved := e.opts
	defer func() { e.opts = saved }()
	for _, rung := range saved.Recovery {
		e.stats.RecoveryAttempts++
		e.opts = rung.apply(saved)
		for i := range x {
			x[i] = 0
		}
		if rerr := e.solveOperatingPoint(x); rerr == nil {
			e.stats.Recoveries++
			return nil
		}
	}
	return err
}

// solveOperatingPoint is the classic three-stage strategy: plain Newton
// from the given guess, then gmin stepping, then source stepping.
func (e *Engine) solveOperatingPoint(x []float64) error {
	if ferr := fpOpNoConv.Hit(); ferr != nil {
		return fmt.Errorf("%w: %s", ErrNoConvergence, ferr)
	}
	ctx := &e.ctx
	*ctx = device.Context{Mode: device.OP, SrcScale: 1, Gmin: e.opts.GminFloor}
	if err := e.solveNewton(x, nil, ctx, 0); err == nil {
		return nil
	}

	// Gmin stepping: solve with a strong shunt from every node to ground,
	// then relax it geometrically, reusing the previous solution.
	for i := range x {
		x[i] = 0
	}
	gshunt := e.opts.GshuntStart
	ok := true
	for gshunt >= e.opts.GminFloor {
		ctx.Gmin = math.Max(gshunt, e.opts.GminFloor)
		if err := e.solveNewton(x, nil, ctx, gshunt); err != nil {
			ok = false
			break
		}
		gshunt /= 10
	}
	if ok {
		ctx.Gmin = e.opts.GminFloor
		if err := e.solveNewton(x, nil, ctx, 0); err == nil {
			return nil
		}
	}

	// Source stepping: ramp all independent sources from 0 to full value.
	for i := range x {
		x[i] = 0
	}
	ctx.Gmin = e.opts.GminFloor
	scale := 0.0
	step := 0.1
	for scale < 1 {
		next := math.Min(1, scale+step)
		ctx.SrcScale = next
		copy(e.prevX, x)
		if err := e.solveNewton(x, nil, ctx, 0); err != nil {
			copy(x, e.prevX)
			step /= 2
			if step < 1e-4 {
				return fmt.Errorf("%w: source stepping stalled at scale %.4g", ErrNoConvergence, scale)
			}
			continue
		}
		scale = next
		step = math.Min(step*1.5, 0.25)
	}
	ctx.SrcScale = 1
	return e.solveNewton(x, nil, ctx, 0)
}

// SweepDC solves operating points while overriding the DC level of the
// named source device (a *device.ISource or *device.VSource whose
// waveform is replaced by a DC value per point). It returns one solution
// per value; consecutive points reuse the previous solution as the
// Newton seed. Swapping the waveform only changes the right-hand side,
// so the cached linear matrix survives the whole sweep.
func (e *Engine) SweepDC(source string, values []float64) ([][]float64, error) {
	t0, pre := e.traceStart()
	defer e.traceEnd("dc-sweep", t0, pre)
	d := e.ckt.Device(source)
	if d == nil {
		return nil, fmt.Errorf("sim: sweep source %q not found", source)
	}
	restore, set, err := sourceOverride(d)
	if err != nil {
		return nil, err
	}
	defer restore()

	out := make([][]float64, 0, len(values))
	var x []float64
	for i, v := range values {
		set(v)
		if i == 0 {
			first, err := e.OperatingPoint()
			if err != nil {
				return nil, fmt.Errorf("sweep point %d (%g): %w", i, v, err)
			}
			x = first
		} else {
			ctx := &e.ctx
			*ctx = device.Context{Mode: device.OP, SrcScale: 1, Gmin: e.opts.GminFloor}
			if err := e.solveNewton(x, nil, ctx, 0); err != nil {
				// Fall back to a cold start for hard points.
				cold, cerr := e.OperatingPoint()
				if cerr != nil {
					return nil, fmt.Errorf("sweep point %d (%g): %w", i, v, err)
				}
				x = cold
			}
		}
		snap := make([]float64, len(x))
		copy(snap, x)
		out = append(out, snap)
	}
	return out, nil
}
