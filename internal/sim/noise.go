package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/device"
)

// Small-signal noise analysis: every resistor contributes thermal noise
// (4kT/R) and every MOSFET channel noise (4kT·γ·gm, γ = 2/3 in strong
// inversion), modeled as independent current sources across the noisy
// element. For each analysis frequency the engine solves one AC system
// per noise source with a unit current excitation and accumulates the
// squared magnitude of the transfer to the output node — the direct
// method, perfectly adequate for macro-sized circuits.

// Boltzmann constant times the standard analysis temperature (300 K).
const fourKT = 4 * 1.380649e-23 * 300

// mosChannelNoiseGamma is the strong-inversion excess-noise factor.
const mosChannelNoiseGamma = 2.0 / 3.0

// NoisePoint is the output noise at one frequency.
type NoisePoint struct {
	Freq float64
	// Density is the output noise voltage density in V/√Hz.
	Density float64
	// Contributions maps device names to their share of the output noise
	// POWER density (V²/Hz).
	Contributions map[string]float64
}

// NoiseResult is a noise sweep.
type NoiseResult struct {
	Points []NoisePoint
}

// TotalRMS integrates the output noise density over the swept band with
// trapezoidal integration in linear frequency, returning volts RMS.
func (r *NoiseResult) TotalRMS() float64 {
	if len(r.Points) < 2 {
		return 0
	}
	sum := 0.0
	for i := 1; i < len(r.Points); i++ {
		a, b := r.Points[i-1], r.Points[i]
		pa := a.Density * a.Density
		pb := b.Density * b.Density
		sum += 0.5 * (pa + pb) * (b.Freq - a.Freq)
	}
	return math.Sqrt(sum)
}

// noiseSource is one independent noise generator between two unknowns.
type noiseSource struct {
	name string
	p, m int     // current injected m -> p
	sd   float64 // current noise power density in A²/Hz
}

// Noise computes the output-referred noise voltage density at the given
// node over the frequency list, linearized at the operating point xop.
func (e *Engine) Noise(xop []float64, output string, freqs []float64) (*NoiseResult, error) {
	t0, pre := e.traceStart()
	defer e.traceEnd("noise", t0, pre)
	if len(freqs) == 0 {
		return nil, fmt.Errorf("sim: noise analysis needs frequencies")
	}
	outIdx, ok := e.layout.NodeIndex[output]
	if !ok {
		return nil, fmt.Errorf("sim: noise output node %q unknown", output)
	}

	// Collect noise sources.
	var sources []noiseSource
	for _, d := range e.ckt.Devices() {
		switch dev := d.(type) {
		case *device.Resistor:
			ts := dev.Terminals()
			sources = append(sources, noiseSource{
				name: dev.Name(), p: ts[0], m: ts[1], sd: fourKT / dev.R,
			})
		case *device.MOSFET:
			gm := dev.Gm(xop)
			if gm <= 0 {
				continue
			}
			ts := dev.Terminals()
			// Channel noise acts between drain and source.
			sources = append(sources, noiseSource{
				name: dev.Name(), p: ts[0], m: ts[2], sd: fourKT * mosChannelNoiseGamma * gm,
			})
		}
	}

	res := &NoiseResult{}
	n := e.layout.Dim()
	// The system matrix at one frequency is identical for every noise
	// source — only the unit-current excitation differs. Assemble (from
	// the cached frequency-independent base) and factor once per
	// frequency, then solve one right-hand side per source.
	sw, err := e.PrepareAC(xop, "")
	if err != nil {
		return nil, err
	}
	sol := make([]complex128, n)
	for _, f := range freqs {
		omega := 2 * math.Pi * f
		pt := NoisePoint{Freq: f, Contributions: make(map[string]float64, len(sources))}
		sw.assembleAt(omega)
		e.stats.Factorizations++
		if err := sw.sys.FactorInPlace(); err != nil {
			return nil, fmt.Errorf("sim: noise at %g Hz: %w", f, err)
		}
		for _, src := range sources {
			sw.sys.ClearRHS()
			sw.sys.StampCurrent(src.m, src.p, 1)
			sw.sys.SolveInto(sol)
			var vout complex128
			if outIdx >= 0 {
				vout = sol[outIdx]
			}
			h := cmplx.Abs(vout)
			pt.Contributions[src.name] += h * h * src.sd
		}
		power := 0.0
		for _, p := range pt.Contributions {
			power += p
		}
		pt.Density = math.Sqrt(power)
		res.Points = append(res.Points, pt)
	}
	e.flushStats()
	return res, nil
}
