package sim

import (
	"fmt"
	"math"

	"repro/internal/device"
)

// AdaptiveSpec tunes the variable-step transient analysis.
type AdaptiveSpec struct {
	Stop  float64 // end time
	DtIni float64 // initial step
	DtMin float64 // abort below this step
	DtMax float64 // never exceed this step
	// Tol is the relative local-truncation-error budget per accepted
	// step; the step-doubling estimator compares one full step against
	// two half steps.
	Tol float64
}

// DefaultAdaptiveSpec returns settings suitable for the macro circuits:
// start at 1/1000 of the window, refine down to 1e-15 s, allow growth to
// 1/50 of the window.
func DefaultAdaptiveSpec(stop float64) AdaptiveSpec {
	return AdaptiveSpec{
		Stop:  stop,
		DtIni: stop / 1000,
		DtMin: 1e-15,
		DtMax: stop / 50,
		Tol:   1e-4,
	}
}

// TransientAdaptive integrates with local-truncation-error step control:
// each accepted step is the two-half-steps solution of a step-doubling
// pair, the error estimate being the difference against the single full
// step. The returned trace has a non-uniform time axis.
func (e *Engine) TransientAdaptive(spec AdaptiveSpec, probes []string) (*Trace, error) {
	t0, pre := e.traceStart()
	defer e.traceEnd("transient-adaptive", t0, pre)
	if spec.Stop <= 0 || spec.DtIni <= 0 || spec.DtMin <= 0 || spec.DtMax < spec.DtIni {
		return nil, fmt.Errorf("sim: invalid adaptive spec %+v", spec)
	}
	if spec.Tol <= 0 {
		spec.Tol = 1e-4
	}
	x, err := e.OperatingPoint()
	if err != nil {
		return nil, fmt.Errorf("sim: adaptive transient operating point: %w", err)
	}
	state := make([]float64, e.stateLen)
	for i, dy := range e.dynamics {
		dy.InitState(x, state[e.stateOff[i]:e.stateOff[i]+dy.NumStates()])
	}

	tr := &Trace{Signals: make(map[string][]float64, len(probes))}
	record := func(t float64, x []float64) {
		tr.Times = append(tr.Times, t)
		for _, p := range probes {
			tr.Signals[p] = append(tr.Signals[p], e.ckt.NodeVoltage(x, p))
		}
	}
	record(0, x)

	xf := make([]float64, len(x))
	xh := make([]float64, len(x))
	stf := make([]float64, len(state))
	sth := make([]float64, len(state))

	t := 0.0
	dt := spec.DtIni
	firstStep := true
	for t < spec.Stop-1e-18*spec.Stop {
		if t+dt > spec.Stop {
			dt = spec.Stop - t
		}
		integ := device.Trapezoidal
		if firstStep {
			integ = device.BackwardEuler
		}

		// Full step.
		copy(xf, x)
		copy(stf, state)
		errFull := e.stepOnce(xf, stf, t, t+dt, integ)
		// Two half steps.
		copy(xh, x)
		copy(sth, state)
		errHalf := e.stepOnce(xh, sth, t, t+dt/2, integ)
		if errHalf == nil {
			errHalf = e.stepOnce(xh, sth, t+dt/2, t+dt, integ)
		}

		if errFull != nil || errHalf != nil {
			dt /= 4
			if dt < spec.DtMin {
				if errHalf != nil {
					return nil, fmt.Errorf("sim: adaptive transient stalled at t=%.4g: %w", t, errHalf)
				}
				return nil, fmt.Errorf("sim: adaptive transient stalled at t=%.4g: %w", t, errFull)
			}
			continue
		}

		// LTE estimate: disagreement between the two paths.
		worst := 0.0
		for i := range xh {
			d := math.Abs(xf[i] - xh[i])
			scale := spec.Tol * (1 + math.Abs(xh[i]))
			if r := d / scale; r > worst {
				worst = r
			}
		}
		if worst > 1 {
			dt /= 2
			if dt < spec.DtMin {
				return nil, fmt.Errorf("sim: adaptive transient below DtMin at t=%.4g", t)
			}
			continue
		}
		// Accept the more accurate two-half-steps result.
		copy(x, xh)
		copy(state, sth)
		t += dt
		firstStep = false
		record(t, x)
		if worst < 0.1 {
			dt = math.Min(dt*1.6, spec.DtMax)
		}
	}
	return tr, nil
}

// stepOnce advances exactly one implicit step without subdivision,
// updating x and state on success. The step-doubling pairs alternate
// between dt and dt/2, which the engine's two linear-snapshot slots
// absorb without restamping.
func (e *Engine) stepOnce(x, state []float64, t, target float64, integ device.Integration) error {
	ctx := &e.ctx
	*ctx = device.Context{
		Mode:     device.Transient,
		Time:     target,
		Dt:       target - t,
		Gmin:     e.opts.GminFloor,
		SrcScale: 1,
		Integ:    integ,
	}
	if err := e.solveNewton(x, state, ctx, 0); err != nil {
		return err
	}
	for i, dy := range e.dynamics {
		dy.Commit(x, state[e.stateOff[i]:e.stateOff[i]+dy.NumStates()], ctx)
	}
	return nil
}
