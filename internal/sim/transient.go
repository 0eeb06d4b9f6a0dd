package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/wave"
)

// Trace holds transient results: the time axis plus one sample series per
// requested probe node.
type Trace struct {
	Times   []float64
	Signals map[string][]float64
}

// Signal returns the samples recorded for a probe node.
func (t *Trace) Signal(node string) []float64 { return t.Signals[node] }

// Len returns the number of time points.
func (t *Trace) Len() int { return len(t.Times) }

// resize makes the trace hold n time points for exactly the given
// probes, reusing every slice whose capacity suffices.
func (t *Trace) resize(n int, probes []string) {
	t.Times = sized(t.Times, n)
	if t.Signals == nil {
		t.Signals = make(map[string][]float64, len(probes))
	}
	for p := range t.Signals {
		if !slices.Contains(probes, p) {
			delete(t.Signals, p)
		}
	}
	for _, p := range probes {
		t.Signals[p] = sized(t.Signals[p], n)
	}
}

// sized returns s resliced to length n, or a new slice when s is too
// small.
func sized(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Transient integrates the circuit from its DC operating point to stop
// seconds with a fixed base step dt, recording the probe node voltages at
// every accepted step (t = dt, 2·dt, ..., plus t = 0 for the operating
// point). It returns a new trace; TransientInto refills one the caller
// owns.
//
// The first step after t = 0 uses backward Euler to damp the
// inconsistent initial capacitor currents; all later steps are
// trapezoidal. A step that fails to converge is retried with up to 8
// binary subdivisions before the analysis gives up.
func (e *Engine) Transient(stop, dt float64, probes []string) (*Trace, error) {
	tr := &Trace{}
	if err := e.TransientInto(tr, stop, dt, probes); err != nil {
		return nil, err
	}
	return tr, nil
}

// TransientInto is Transient into a caller-owned trace. The trace is
// sized once to the run's steps+1 time points, reusing its slices when
// they are large enough, and then filled in place, so a retained engine
// that keeps one trace records its runs without allocating. Probe names
// are resolved before the operating point: an unknown node is an error.
// Samples the trace held before the call are overwritten; after an error
// its contents are unspecified.
func (e *Engine) TransientInto(tr *Trace, stop, dt float64, probes []string) error {
	t0, pre := e.traceStart()
	defer e.traceEnd("transient", t0, pre)
	if stop <= 0 || dt <= 0 {
		return fmt.Errorf("sim: invalid transient window stop=%g dt=%g", stop, dt)
	}
	steps := int(math.Round(stop / dt))
	if steps < 1 {
		steps = 1
	}
	tr.resize(steps+1, probes)
	idx, sigs := e.probeIdx[:0], e.probeSig[:0]
	for _, p := range probes {
		i := -1 // ground
		if !circuit.IsGround(p) {
			var ok bool
			if i, ok = e.layout.NodeIndex[p]; !ok {
				return fmt.Errorf("sim: transient probe: unknown node %q", p)
			}
		}
		idx, sigs = append(idx, i), append(sigs, tr.Signals[p])
	}
	e.probeIdx, e.probeSig = idx, sigs

	x, err := e.OperatingPoint()
	if err != nil {
		return fmt.Errorf("sim: transient operating point: %w", err)
	}
	state := make([]float64, e.stateLen)
	for i, dy := range e.dynamics {
		dy.InitState(x, state[e.stateOff[i]:e.stateOff[i]+dy.NumStates()])
	}
	t := 0.0
	for k := 0; ; k++ {
		tr.Times[k] = t
		for j, i := range idx {
			v := 0.0
			if i >= 0 {
				v = x[i]
			}
			sigs[j][k] = v
		}
		if k == steps {
			return nil
		}
		target := float64(k+1) * dt
		if err := e.advance(x, state, t, target, k == 0, 0); err != nil {
			return fmt.Errorf("sim: transient at t=%.4g: %w", target, err)
		}
		t = target
	}
}

// advance integrates from t to target (one nominal step), recursively
// splitting the interval when Newton fails. depth bounds the recursion.
//
// The trial vector and context are engine scratch: they are only live
// between the copy-in and the Newton return, never across a recursive
// call, so reuse is safe and the steady-state step allocates nothing.
// As long as consecutive steps keep the same dt and method, the
// companion conductances are served from the cached linear snapshot
// instead of being rebuilt.
func (e *Engine) advance(x, state []float64, t, target float64, useBE bool, depth int) error {
	ctx := &e.ctx
	*ctx = device.Context{
		Mode:     device.Transient,
		Time:     target,
		Dt:       target - t,
		Gmin:     e.opts.GminFloor,
		SrcScale: 1,
		Integ:    device.Trapezoidal,
	}
	if useBE {
		ctx.Integ = device.BackwardEuler
	}
	copy(e.trialX, x)
	err := e.solveNewton(e.trialX, state, ctx, 0)
	if err == nil {
		copy(x, e.trialX)
		for i, dy := range e.dynamics {
			dy.Commit(x, state[e.stateOff[i]:e.stateOff[i]+dy.NumStates()], ctx)
		}
		return nil
	}
	if depth >= 8 {
		return err
	}
	mid := t + (target-t)/2
	// Subdivided steps fall back to backward Euler for robustness.
	if err := e.advance(x, state, t, mid, true, depth+1); err != nil {
		return err
	}
	return e.advance(x, state, mid, target, true, depth+1)
}

// sourceOverride returns a setter that replaces the DC/waveform drive of
// an independent source plus a restore function, used by sweeps.
func sourceOverride(d device.Device) (restore func(), set func(v float64), err error) {
	switch s := d.(type) {
	case *device.ISource:
		old := s.W
		return func() { s.W = old }, func(v float64) { s.W = wave.DC(v) }, nil
	case *device.VSource:
		old := s.W
		return func() { s.W = old }, func(v float64) { s.W = wave.DC(v) }, nil
	default:
		return nil, nil, fmt.Errorf("sim: device %q is not an independent source", d.Name())
	}
}

// BranchCurrent returns the branch current of the named Brancher device
// (voltage source or inductor) from a solution vector.
func (e *Engine) BranchCurrent(x []float64, name string) (float64, error) {
	d := e.ckt.Device(name)
	if d == nil {
		return 0, fmt.Errorf("sim: device %q not found", name)
	}
	br, ok := d.(device.Brancher)
	if !ok {
		return 0, fmt.Errorf("sim: device %q has no branch current", name)
	}
	return x[br.BranchBase()], nil
}
