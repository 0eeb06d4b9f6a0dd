package testcfg

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// Prepared evaluation: the impact-search hot loop evaluates one
// configuration on one faulty circuit hundreds of times, varying only
// the fault resistance and the test parameters. Config.Run rebuilds the
// world on every call — clone, compile, allocate an engine — which is
// pure overhead when the circuit structure never changes. An Evaluator
// amortizes that setup: the circuit is cloned and compiled once, the
// engine is retained, and each evaluation only swaps the stimulus wave
// (and, through Engine.Retarget, the fault resistance) before re-running
// the recipe.
//
// Bit-identity is the design constraint, not an afterthought: Config.Run
// prepares the same evaluator on its clone and runs it once (RunGroup), so
// the throwaway path and the retained path execute the same statements
// on the same engine code. The retained engine's snapshot caches are
// invalidated by Retarget and rebuilt by replaying the same device
// stamps from a zeroed matrix, which the simulation kernel guarantees to
// be bit-identical to a freshly built engine.

// analysis is the simulate step of built-in configurations: prep builds
// an evaluator whose engine uses opts and that applies the stimulus for
// T to a compiled circuit and runs one simulation. Configurations
// sharing an analysis differ only in their measure step, so one
// simulation serves all of them.
type analysis struct {
	prep func(ckt *circuit.Circuit, opts sim.Options) (*Evaluator, error)
}

// outcome is what one simulation hands the measure steps: the engine and
// solution vector of an operating point, or the observed Vout samples of
// a transient. Both belong to the evaluator and stay valid until its
// next run; measures only read them.
type outcome struct {
	eng *sim.Engine
	x   []float64
	v   []float64
}

// measureAll reduces one outcome to every configuration's return values.
func measureAll(cfgs []*Config, o outcome) ([][]float64, error) {
	out := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		r, err := c.measure(o)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Evaluator is a retained-engine evaluation handle for one configuration
// bound to one compiled circuit. It is not safe for concurrent use —
// like the sim.Engine it wraps, it belongs to a single goroutine.
type Evaluator struct {
	cfg *Config
	eng *sim.Engine
	// cold runs the simulation exactly as Config.Run would: no state
	// carried across calls.
	cold func(T []float64) (outcome, error)
	// warm, when non-nil, runs it with the previous solution as the
	// Newton seed. Converges to the same fixed point within solver
	// tolerance, but is not bit-identical to cold; callers that need
	// exact results must use Run.
	warm func(T []float64) (outcome, error)
}

// CanPrepare reports whether the configuration supports retained-engine
// evaluation. Custom runners (NewCustom) and DSL configurations do not.
func (c *Config) CanPrepare() bool { return c.an != nil }

// Prepare validates the macro interface, clones the circuit once, and
// builds a retained evaluator whose engine uses opts. The clone is owned
// by the evaluator; the input circuit is never modified.
func (c *Config) Prepare(ckt *circuit.Circuit, opts sim.Options) (*Evaluator, error) {
	if c.an == nil {
		return nil, fmt.Errorf("testcfg %s: configuration has no prepared evaluator", c.Name)
	}
	if err := ValidateMacro(ckt); err != nil {
		return nil, err
	}
	ev, err := c.an.prep(ckt.Clone(), opts)
	if err != nil {
		return nil, err
	}
	ev.cfg = c
	return ev, nil
}

// Engine exposes the retained engine, the handle core needs to register
// low-rank fault perturbations and resolve node indices once per fault.
func (ev *Evaluator) Engine() *sim.Engine { return ev.eng }

// Retarget changes the resistance of one resistor on the retained
// circuit (the fault's impact device) and invalidates the engine's
// snapshots accordingly.
func (ev *Evaluator) Retarget(name string, r float64) error {
	return ev.eng.Retarget(name, r)
}

// Run evaluates the configuration at T on the retained engine with cold
// solver state: the result is bit-identical to Config.Run on an
// identically valued circuit.
func (ev *Evaluator) Run(T []float64) ([]float64, error) {
	r, err := ev.RunGroup([]*Config{ev.cfg}, T)
	if err != nil {
		return nil, err
	}
	return r[0], nil
}

// RunGroup is Run for every configuration of cfgs, which must share the
// evaluator's analysis: one cold simulation, each configuration's return
// values bit-identical to RunGroup on an identically valued circuit.
// As there, cfgs[0] validates T.
func (ev *Evaluator) RunGroup(cfgs []*Config, T []float64) ([][]float64, error) {
	if err := cfgs[0].Check(T); err != nil {
		return nil, err
	}
	o, err := ev.cold(T)
	if err != nil {
		return nil, err
	}
	return measureAll(cfgs, o)
}

// HasWarm reports whether the configuration has a warm-start recipe.
func (ev *Evaluator) HasWarm() bool { return ev.warm != nil }

// RunWarm evaluates at T reusing the previous solution as the Newton
// seed. The result agrees with Run to solver tolerance but is not
// bit-identical; configurations without a warm recipe fall back to Run.
func (ev *Evaluator) RunWarm(T []float64) ([]float64, error) {
	if ev.warm == nil {
		return ev.Run(T)
	}
	if err := ev.cfg.Check(T); err != nil {
		return nil, err
	}
	o, err := ev.warm(T)
	if err != nil {
		return nil, err
	}
	return ev.cfg.measure(o)
}
