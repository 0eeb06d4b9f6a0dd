package testcfg

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/dsp"
	"repro/internal/macros"
	"repro/internal/sim"
	"repro/internal/wave"
)

// Extended configurations beyond the paper's Table 1. The paper's
// framework explicitly supports adding test configuration descriptions
// per macro type; these demonstrate the extension point with richer
// dynamic ATE measurements.

// sinadConfig is configuration #6: the same coherent sine capture as the
// THD configuration, reporting SINAD (signal over noise-plus-distortion)
// in dB — the measurement a mixed-signal production flow typically adds
// next. The return value is negated SINAD so that "larger deviation"
// still means "worse part" on the same axis convention as the other
// configurations (the sensitivity machinery only cares about |Δr|).
func sinadConfig() *Config {
	return &Config{
		ID:       6,
		Name:     "sinad",
		Macro:    "IV-converter",
		Stimulus: "Iin <- sine(Iindc, 5uA, freq)",
		Observe:  "SINAD(V(Vout)) [dB]",
		Params: []Param{
			{Name: "Iindc", Unit: "A", Lo: 0, Hi: 40e-6, Seed: 20e-6},
			{Name: "freq", Unit: "Hz", Lo: 1e3, Hi: 100e3, Seed: 10e3},
		},
		Returns: []Return{{Name: "SINAD(Vout)", Unit: "dB", Accuracy: 0.5}},
		run: func(ckt *circuit.Circuit, T []float64, opts sim.Options) ([]float64, error) {
			iindc, freq := T[0], T[1]
			macros.SetInputWave(ckt, wave.Sine{Offset: iindc, Amplitude: 5e-6, Freq: freq})
			e, err := sim.New(ckt, opts)
			if err != nil {
				return nil, err
			}
			period := 1 / freq
			total := thdWarmPeriods + thdMeasurePeriods
			dt := period / thdStepsPerPeriod
			tr, err := e.Transient(float64(total)*period, dt, []string{macros.NodeVout})
			if err != nil {
				return nil, err
			}
			v := tr.Signal(macros.NodeVout)
			n := thdMeasurePeriods * thdStepsPerPeriod
			if len(v) < n {
				return nil, fmt.Errorf("testcfg sinad: trace too short")
			}
			sp, err := dsp.AnalyzeSpectrum(v[len(v)-n:], thdMeasurePeriods, n/4)
			if err != nil {
				return nil, err
			}
			sinad, err := sp.SINADdB()
			if err != nil {
				return nil, err
			}
			// Clamp the ideal-record +Inf to a finite ceiling so the
			// sensitivity arithmetic stays well-defined.
			if sinad > 200 {
				sinad = 200
			}
			return []float64{sinad}, nil
		},
	}
}

// ExtendedIVConfigs returns the paper's five configurations plus the
// SINAD extension (#6).
func ExtendedIVConfigs() []*Config {
	return append(IVConfigs(), sinadConfig())
}
