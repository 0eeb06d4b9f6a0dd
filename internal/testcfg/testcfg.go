// Package testcfg implements the paper's test configuration concept: a
// reusable description of which macro nodes are controlled and observed,
// the stimulus waveform shapes with their free test parameters, and the
// post-processing that turns observed waveforms into return values
// (paper §2.1 and Fig. 1).
//
// A Config is a test configuration *implementation* for the IV-converter
// macro type: the general description plus parameter bounds (constraint
// values), seed values and equipment-accuracy floors. A test in the
// paper's sense is a Config plus a concrete parameter vector.
package testcfg

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/dsp"
	"repro/internal/macros"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/wave"
)

// Param is one optimizable test parameter with its constraint interval
// and designer-provided seed value.
type Param struct {
	Name string
	Unit string
	Lo   float64
	Hi   float64
	Seed float64
}

// Return describes one return value of a configuration, including the
// accuracy floor of the measuring equipment that widens the tolerance
// box.
type Return struct {
	Name     string
	Unit     string
	Accuracy float64
}

// Runner executes the configuration's stimulus/measurement recipe on a
// circuit at parameter vector T and produces the return values.
type Runner func(ckt *circuit.Circuit, T []float64) ([]float64, error)

// Config is a test configuration implementation.
type Config struct {
	// ID is the paper's configuration number (1-based).
	ID int
	// Name is a short mnemonic ("thd", "step-integral", ...).
	Name string
	// Macro is the macro type the description applies to.
	Macro string
	// Stimulus is the human-readable stimulus description (Fig. 1 style).
	Stimulus string
	// Observe is the observation/post-processing description.
	Observe string
	Params  []Param
	Returns []Return
	// Every configuration is a simulate step (an, shared by every
	// configuration that applies the same stimulus to the same observed
	// signal) followed by its own measure step.
	an      *analysis
	measure measure
}

// NewCustom builds a configuration around a caller-supplied runner. It
// is the extension point for test configurations outside this package —
// and for the chaos tests, which need runners that panic or refuse to
// converge on demand. The runner is the configuration's simulate step
// and its values are the return values; it builds its own engines, so
// the solver options a caller passes to RunGroup do not reach it.
func NewCustom(id int, name string, params []Param, returns []Return, run Runner) *Config {
	return &Config{
		ID:      id,
		Name:    name,
		Macro:   "iv-converter",
		Params:  params,
		Returns: returns,
		an:      customAnalysis(run),
		measure: func(o outcome) ([]float64, error) { return o.v, nil },
	}
}

// ValidateMacro checks that a circuit exposes the standardized
// IV-converter interface the configurations control and observe.
func ValidateMacro(ckt *circuit.Circuit) error {
	if _, ok := ckt.Device(macros.InputSourceName).(*device.ISource); !ok {
		return fmt.Errorf("testcfg: macro %q lacks input current source %q", ckt.Name(), macros.InputSourceName)
	}
	if _, ok := ckt.Device(macros.SupplySourceName).(*device.VSource); !ok {
		return fmt.Errorf("testcfg: macro %q lacks supply source %q", ckt.Name(), macros.SupplySourceName)
	}
	if !ckt.HasNode(macros.NodeVout) {
		return fmt.Errorf("testcfg: macro %q lacks output node %q", ckt.Name(), macros.NodeVout)
	}
	return nil
}

// Check validates a parameter vector against the configuration's
// parameter count and constraint box.
func (c *Config) Check(T []float64) error {
	if len(T) != len(c.Params) {
		return fmt.Errorf("testcfg %s: parameter vector length %d, want %d", c.Name, len(T), len(c.Params))
	}
	for i, p := range c.Params {
		if T[i] < p.Lo-1e-12 || T[i] > p.Hi+1e-12 {
			return fmt.Errorf("testcfg %s: parameter %s=%g outside [%g, %g]", c.Name, p.Name, T[i], p.Lo, p.Hi)
		}
	}
	return nil
}

// Run clones the circuit, applies the stimulus for parameter vector T and
// returns the measured return values. The input circuit is not modified,
// so nominal, faulty and corner variants can share one golden netlist.
// It simulates unobserved on sim.DefaultOptions; RunGroup takes the
// options.
func (c *Config) Run(ckt *circuit.Circuit, T []float64) ([]float64, error) {
	r, err := RunGroup([]*Config{c}, ckt, T, sim.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return r[0], nil
}

// Window is the ATE stimulus and measurement window of one application
// of the configuration at T, as its analysis reports it: 1 ms for an
// operating point (and for a custom configuration), the warm-up and
// measured periods of a sine capture, the 7.5 µs of a step response.
func (c *Config) Window(T []float64) time.Duration { return c.an.window(T) }

// SharesAnalysis reports whether a and b apply the same stimulus to the
// same observed signal over the same parameter box and differ only in
// post-processing, so that one simulation yields the return values of
// both. Only built-in configurations share; each custom and DSL
// configuration has an analysis of its own, so it is always alone.
func SharesAnalysis(a, b *Config) bool {
	if a.an != b.an || len(a.Params) != len(b.Params) {
		return false
	}
	for i, p := range a.Params {
		if p.Lo != b.Params[i].Lo || p.Hi != b.Params[i].Hi {
			return false
		}
	}
	return true
}

// RunGroup is Config.Run for configurations that share one analysis:
// it clones the circuit, runs the shared simulation once at T and
// returns each configuration's return values, in order — each
// bit-identical to that configuration's own Run. cfgs[0] validates T;
// every other entry must share its analysis (SharesAnalysis). Every
// engine the run builds uses opts. It runs a throwaway Evaluator, so
// the throwaway and the retained path are one piece of code.
func RunGroup(cfgs []*Config, ckt *circuit.Circuit, T []float64, opts sim.Options) ([][]float64, error) {
	ev, err := cfgs[0].Prepare(ckt, opts)
	if err != nil {
		return nil, err
	}
	return ev.RunGroup(cfgs, T)
}

// Bounds returns the constraint box of the parameter space.
func (c *Config) Bounds() opt.Box {
	lo := make([]float64, len(c.Params))
	hi := make([]float64, len(c.Params))
	for i, p := range c.Params {
		lo[i], hi[i] = p.Lo, p.Hi
	}
	return opt.NewBox(lo, hi)
}

// Seeds returns the designer seed parameter vector.
func (c *Config) Seeds() []float64 {
	s := make([]float64, len(c.Params))
	for i, p := range c.Params {
		s[i] = p.Seed
	}
	return s
}

// Accuracies returns the equipment accuracy floor per return value.
func (c *Config) Accuracies() []float64 {
	a := make([]float64, len(c.Returns))
	for i, r := range c.Returns {
		a[i] = r.Accuracy
	}
	return a
}

// Describe renders the configuration description in the style of the
// paper's Fig. 1.
func (c *Config) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Macro type: %s\n", c.Macro)
	fmt.Fprintf(&b, "test configuration #%d: %s\n", c.ID, c.Name)
	fmt.Fprintf(&b, "  stimulus: %s\n", c.Stimulus)
	fmt.Fprintf(&b, "  observe:  %s\n", c.Observe)
	for _, p := range c.Params {
		fmt.Fprintf(&b, "  param %-6s in [%g, %g] %s, seed %g\n", p.Name, p.Lo, p.Hi, p.Unit, p.Seed)
	}
	for _, r := range c.Returns {
		fmt.Fprintf(&b, "  return %s [%s], equipment accuracy %g\n", r.Name, r.Unit, r.Accuracy)
	}
	return b.String()
}

// Simulation settings shared by the transient configurations.
const (
	// THD analysis: warm-up periods before the measured periods.
	thdWarmPeriods    = 3
	thdMeasurePeriods = 2
	thdStepsPerPeriod = 256
	thdMaxHarmonic    = 5

	// Step-response configurations (#4, #5): Vout is sampled at 100 MHz
	// during 7.5 µs, per Table 1.
	stepSampleRate = 100e6
	stepTestTime   = 7.5e-6
	stepDelay      = 10e-9
	stepRise       = 10e-9
)

// IVConfigs returns the five test configuration implementations of the
// paper's Table 1 for the IV-converter macro type.
func IVConfigs() []*Config {
	return []*Config{
		dcOutConfig(),
		supplyCurrentConfig(),
		thdConfig(),
		stepIntegralConfig(),
		stepPeakConfig(),
	}
}

// ByID returns the configuration with the given paper number, or nil.
func ByID(cfgs []*Config, id int) *Config {
	for _, c := range cfgs {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// The shared analyses of the built-in configurations. Configurations
// that point at the same analysis form one simulation group in a
// session (SharesAnalysis): #1/#2 read one DC operating point, #3/#6
// reduce one sine capture, #4/#5 one sampled step transient. A DSL
// description compiles onto an analysis of its own (dsl.go).
var (
	dcOperatingPoint = opAnalysis(0, "", true)
	sineTransient    = sineAnalysis(0, 1, 5e-6, macros.NodeVout)
	stepTransient    = stepAnalysis(0, 1, stepDelay, stepRise, macros.NodeVout)
)

// dcWindow is the ATE window of a DC measurement, which settles in
// about 1 ms.
func dcWindow([]float64) time.Duration { return time.Millisecond }

// newEngine builds the engine of a simulate step on the compiled circuit
// and checks that the circuit has the node the step observes ("":
// none). ValidateMacro guarantees the built-ins' Vout, so only a DSL
// description can name a node the macro lacks.
func newEngine(ckt *circuit.Circuit, opts sim.Options, node string) (*sim.Engine, error) {
	e, err := sim.New(ckt, opts)
	if err != nil {
		return nil, err
	}
	if _, ok := e.Layout().NodeIndex[node]; !ok && node != "" && !circuit.IsGround(node) {
		return nil, fmt.Errorf("testcfg dsl: node %q missing", node)
	}
	return e, nil
}

// opAnalysis is the operating-point step: the DC level T[in] at the
// input and the solution handed to the measures, which may read node.
// Its cold recipe zeroes the Newton guess, bit-identical to a fresh
// engine; with warm it also gets a warm recipe that seeds Newton with
// the previous solution. Only the built-in DC analysis is warm.
func opAnalysis(in int, node string, warm bool) *analysis {
	return &analysis{window: dcWindow, prep: func(ckt *circuit.Circuit, opts sim.Options) (*Evaluator, error) {
		e, err := newEngine(ckt, opts, node)
		if err != nil {
			return nil, err
		}
		x := make([]float64, e.Layout().Dim())
		ev := &Evaluator{eng: e, cold: func(T []float64) (outcome, error) {
			macros.SetInputWave(ckt, wave.DC(T[in]))
			for i := range x {
				x[i] = 0
			}
			if err := e.OperatingPointInto(x); err != nil {
				return outcome{}, err
			}
			return outcome{eng: e, x: x}, nil
		}}
		if warm {
			wx := make([]float64, e.Layout().Dim())
			ev.warm = func(T []float64) (outcome, error) {
				macros.SetInputWave(ckt, wave.DC(T[in]))
				if err := e.OperatingPointInto(wx); err != nil {
					// Don't leave a diverged iterate as the next seed.
					for i := range wx {
						wx[i] = 0
					}
					return outcome{}, err
				}
				return outcome{eng: e, x: wx}, nil
			}
		}
		return ev, nil
	}}
}

// transientAnalysis is a transient step: drive applies the stimulus for
// T and returns the simulated time and step, and the trace of node goes
// to the measures. A transient analysis keeps no state across calls
// (operating point, step history and companion states are rebuilt per
// run), so it needs no cold/warm split: every run is exact. The
// evaluator owns one trace that every run refills, so outcome.v is valid
// until its next run.
func transientAnalysis(node string, window func([]float64) time.Duration,
	drive func(ckt *circuit.Circuit, T []float64) (stop, dt float64)) *analysis {
	return &analysis{window: window, prep: func(ckt *circuit.Circuit, opts sim.Options) (*Evaluator, error) {
		e, err := newEngine(ckt, opts, node)
		if err != nil {
			return nil, err
		}
		probe := []string{node}
		var tr sim.Trace
		return &Evaluator{eng: e, cold: func(T []float64) (outcome, error) {
			stop, dt := drive(ckt, T)
			if err := e.TransientInto(&tr, stop, dt, probe); err != nil {
				return outcome{}, err
			}
			return outcome{v: tr.Signal(node)}, nil
		}}, nil
	}}
}

// sineAnalysis is the sine capture: a sine of amplitude amp riding on
// the DC level T[offset] at frequency T[freq], node observed over the
// warm-up and measured periods.
func sineAnalysis(offset, freq int, amp float64, node string) *analysis {
	const periods = thdWarmPeriods + thdMeasurePeriods
	return transientAnalysis(node, func(T []float64) time.Duration {
		f := 1e3
		if len(T) > freq && T[freq] > 0 {
			f = T[freq]
		}
		return time.Duration(periods / f * float64(time.Second))
	}, func(ckt *circuit.Circuit, T []float64) (stop, dt float64) {
		f := T[freq]
		macros.SetInputWave(ckt, wave.Sine{Offset: T[offset], Amplitude: amp, Freq: f})
		period := 1 / f
		return periods * period, period / thdStepsPerPeriod
	})
}

// stepAnalysis is the step response: a step from T[base] by T[elev]
// after delay with the given rise, node sampled at 100 MHz for 7.5 µs.
func stepAnalysis(base, elev int, delay, rise float64, node string) *analysis {
	return transientAnalysis(node, func([]float64) time.Duration {
		return time.Duration(stepTestTime * float64(time.Second))
	}, func(ckt *circuit.Circuit, T []float64) (stop, dt float64) {
		macros.SetInputWave(ckt, wave.Step{Base: T[base], Elev: T[elev], Delay: delay, Rise: rise})
		return stepTestTime, 1 / stepSampleRate
	})
}

// customAnalysis runs a NewCustom runner on a fresh clone of the
// evaluator's circuit per run, so a retargeted impact is visible and no
// runner state outlives a run; its values pass on as outcome.v. The
// engine serves Retarget only.
func customAnalysis(run Runner) *analysis {
	return &analysis{window: dcWindow, prep: func(ckt *circuit.Circuit, opts sim.Options) (*Evaluator, error) {
		e, err := sim.New(ckt, opts)
		if err != nil {
			return nil, err
		}
		return &Evaluator{eng: e, cold: func(T []float64) (outcome, error) {
			r, err := run(ckt.Clone(), T)
			return outcome{v: r}, err
		}}, nil
	}}
}

// The measure steps, one per return kind of the description language
// (dsl.go). The built-in configurations are built from them too.

// vdcMeasure is the DC voltage at node (vdc).
func vdcMeasure(node string) measure {
	return func(o outcome) ([]float64, error) {
		return []float64{o.eng.Voltage(o.x, node)}, nil
	}
}

// iddMeasure is the DC current drawn from the Vdd supply (idd).
func iddMeasure(o outcome) ([]float64, error) {
	i, err := o.eng.BranchCurrent(o.x, macros.SupplySourceName)
	if err != nil {
		return nil, err
	}
	return []float64{-i}, nil
}

// thdMeasure is the THD in percent of the measured periods of a sine
// capture, harmonics 2..5 (thd).
func thdMeasure(o outcome) ([]float64, error) {
	v, err := measuredPeriods(o)
	if err != nil {
		return nil, err
	}
	thd, err := dsp.THDPercent(v, thdMeasurePeriods, thdMaxHarmonic)
	if err != nil {
		return nil, err
	}
	return []float64{thd}, nil
}

// measuredPeriods is the part of a sine capture its measures reduce: the
// samples of the measured periods after the warm-up.
func measuredPeriods(o outcome) ([]float64, error) {
	n := thdMeasurePeriods * thdStepsPerPeriod
	if len(o.v) < n {
		return nil, fmt.Errorf("testcfg: sine trace too short (%d < %d)", len(o.v), n)
	}
	return o.v[len(o.v)-n:], nil
}

// sumMeasure accumulates the 100 MHz samples of a step response into
// ΣV·dt (sum).
func sumMeasure(o outcome) ([]float64, error) {
	return []float64{dsp.Accumulate(o.v, 1/stepSampleRate)}, nil
}

// maxMeasure is the largest sample of a step response (max).
func maxMeasure(o outcome) ([]float64, error) {
	return []float64{dsp.Max(o.v)}, nil
}

// dcOutConfig is configuration #1: a DC current level applied at Iin, DC
// voltage measured at Vout. One parameter.
func dcOutConfig() *Config {
	return &Config{
		ID:       1,
		Name:     "dc-out",
		Macro:    "IV-converter",
		Stimulus: "Iin <- dc(Iindc)",
		Observe:  "dV(Vout) dc voltage",
		Params: []Param{
			{Name: "Iindc", Unit: "A", Lo: 0, Hi: 100e-6, Seed: 20e-6},
		},
		Returns: []Return{{Name: "V(Vout)", Unit: "V", Accuracy: 1e-3}},
		an:      dcOperatingPoint,
		measure: vdcMeasure(macros.NodeVout),
	}
}

// supplyCurrentConfig is configuration #2: a DC current level applied at
// Iin, the Vdd supply current measured. One parameter.
func supplyCurrentConfig() *Config {
	return &Config{
		ID:       2,
		Name:     "supply-current",
		Macro:    "IV-converter",
		Stimulus: "Iin <- dc(Iindc)",
		Observe:  "dI(Vdd) dc supply current",
		Params: []Param{
			{Name: "Iindc", Unit: "A", Lo: 0, Hi: 100e-6, Seed: 20e-6},
		},
		Returns: []Return{{Name: "I(Vdd)", Unit: "A", Accuracy: 0.2e-6}},
		an:      dcOperatingPoint,
		measure: iddMeasure,
	}
}

// thdConfig is configuration #3: a 5 µA sine riding on Iindc, THD of
// Vout measured (the configuration behind the paper's Figs. 2-4). Two
// parameters: DC level and frequency.
func thdConfig() *Config {
	return &Config{
		ID:       3,
		Name:     "thd",
		Macro:    "IV-converter",
		Stimulus: "Iin <- sine(Iindc, 5uA, freq)",
		Observe:  "THD(V(Vout)), harmonics 2..5",
		Params: []Param{
			{Name: "Iindc", Unit: "A", Lo: 0, Hi: 40e-6, Seed: 20e-6},
			{Name: "freq", Unit: "Hz", Lo: 1e3, Hi: 100e3, Seed: 10e3},
		},
		Returns: []Return{{Name: "THD(Vout)", Unit: "%", Accuracy: 0.02}},
		an:      sineTransient,
		measure: thdMeasure,
	}
}

// stepIntegralConfig is configuration #4: step(base, elev), Vout sampled
// at 100 MHz for 7.5 µs and accumulated (the ΣV return value of Fig. 1).
func stepIntegralConfig() *Config {
	return &Config{
		ID:       4,
		Name:     "step-integral",
		Macro:    "IV-converter",
		Stimulus: "Iin <- step(base, elev, t0=10ns, rise=10ns)",
		Observe:  "Sum V(Vout); sample-rate=100MHz, test-time=7.5us",
		Params: []Param{
			{Name: "base", Unit: "A", Lo: 0, Hi: 40e-6, Seed: 5e-6},
			{Name: "elev", Unit: "A", Lo: 0, Hi: 40e-6, Seed: 20e-6},
		},
		Returns: []Return{{Name: "SumV(Vout)", Unit: "V·s", Accuracy: 7.5e-9}},
		an:      stepTransient,
		measure: sumMeasure,
	}
}

// stepPeakConfig is configuration #5: step(base, elev), the maximum Vout
// sample reported (the Max(y1..yn) post-processing of Table 1).
func stepPeakConfig() *Config {
	return &Config{
		ID:       5,
		Name:     "step-peak",
		Macro:    "IV-converter",
		Stimulus: "Iin <- step(base, elev, t0=10ns, rise=10ns)",
		Observe:  "Max(V(Vout) samples); sample-rate=100MHz, test-time=7.5us",
		Params: []Param{
			{Name: "base", Unit: "A", Lo: 0, Hi: 40e-6, Seed: 20e-6},
			{Name: "elev", Unit: "A", Lo: 0, Hi: 40e-6, Seed: 10e-6},
		},
		Returns: []Return{{Name: "Max(Vout)", Unit: "V", Accuracy: 5e-3}},
		an:      stepTransient,
		measure: maxMeasure,
	}
}
