package testcfg

import "repro/internal/dsp"

// Extended configurations beyond the paper's Table 1. The paper's
// framework explicitly supports adding test configuration descriptions
// per macro type; these demonstrate the extension point with richer
// dynamic ATE measurements.

// sinadConfig is configuration #6: configuration #3's sine capture —
// same stimulus, window, probe and parameter box, so a session runs the
// two as one simulation — reporting SINAD (signal over
// noise-plus-distortion) in dB, the measurement a mixed-signal
// production flow typically adds next.
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
		an:      sineTransient,
		measure: sinadMeasure,
	}
}

// sinadMeasure is the SINAD in dB of the measured periods of a sine
// capture, clamped to 200 dB so that the ideal record's +Inf keeps the
// sensitivity arithmetic well-defined. The sensitivity machinery only
// cares about |Δr|, so the axis direction is immaterial.
func sinadMeasure(o outcome) ([]float64, error) {
	v, err := measuredPeriods(o)
	if err != nil {
		return nil, err
	}
	sp, err := dsp.AnalyzeSpectrum(v, thdMeasurePeriods, len(v)/4)
	if err != nil {
		return nil, err
	}
	sinad, err := sp.SINADdB()
	if err != nil {
		return nil, err
	}
	if sinad > 200 {
		sinad = 200
	}
	return []float64{sinad}, nil
}

// ExtendedIVConfigs returns the paper's five configurations plus the
// SINAD extension (#6).
func ExtendedIVConfigs() []*Config {
	return append(IVConfigs(), sinadConfig())
}
