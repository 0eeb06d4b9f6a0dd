// Package dsp post-processes transient waveforms into the return values
// the test configurations report: total harmonic distortion via Goertzel
// single-bin DFTs, peak detection, accumulation (the paper's ΣV return
// value) and the SINAD of a coherent spectrum.
package dsp

import (
	"fmt"
	"math"
)

// Goertzel evaluates the DFT of samples at the bin corresponding to k
// cycles over the whole record and returns the complex amplitude
// normalized so that a pure sine A·sin(2πkt/N) yields magnitude A.
//
// The record is assumed to span an integer number of periods of the
// fundamental; the test configurations arrange this by construction.
func Goertzel(samples []float64, k int) complex128 {
	n := len(samples)
	if n == 0 || k < 0 {
		return 0
	}
	w := 2 * math.Pi * float64(k) / float64(n)
	cw := math.Cos(w)
	coeff := 2 * cw
	var s0, s1, s2 float64
	for _, x := range samples {
		s0 = x + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	re := s1*cw - s2
	im := s1 * math.Sin(w)
	// Scale: |X_k| for a unit sine is N/2.
	scale := 2 / float64(n)
	return complex(re*scale, im*scale)
}

// Amplitude returns the magnitude of the k-cycle bin of samples.
func Amplitude(samples []float64, k int) float64 {
	c := Goertzel(samples, k)
	return math.Hypot(real(c), imag(c))
}

// THDPercent computes total harmonic distortion of a record spanning
// `cycles` full periods of the fundamental:
//
//	THD = 100 · sqrt(Σ_{h=2..maxHarmonic} A_h²) / A_1
//
// in percent. It returns an error when the record is too short or the
// fundamental vanishes (no signal to measure).
func THDPercent(samples []float64, cycles, maxHarmonic int) (float64, error) {
	if cycles < 1 {
		return 0, fmt.Errorf("dsp: THD needs at least one full cycle, got %d", cycles)
	}
	if maxHarmonic < 2 {
		return 0, fmt.Errorf("dsp: THD needs maxHarmonic ≥ 2, got %d", maxHarmonic)
	}
	if len(samples) < 2*(maxHarmonic+1)*cycles {
		return 0, fmt.Errorf("dsp: %d samples too few for %d cycles × %d harmonics",
			len(samples), cycles, maxHarmonic)
	}
	fund := Amplitude(samples, cycles)
	if fund <= 0 || math.IsNaN(fund) {
		return 0, fmt.Errorf("dsp: zero fundamental, cannot form THD")
	}
	sum := 0.0
	for h := 2; h <= maxHarmonic; h++ {
		a := Amplitude(samples, h*cycles)
		sum += a * a
	}
	return 100 * math.Sqrt(sum) / fund, nil
}

// Max returns the maximum sample (−Inf for an empty slice), the paper's
// Max(y1..yn) post-processing operator.
func Max(samples []float64) float64 {
	m := math.Inf(-1)
	for _, v := range samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Accumulate returns the sum of samples scaled by the sample interval —
// the discrete integral ΣV·Δt of the paper's "sample and accumulate"
// return value (Fig. 1).
func Accumulate(samples []float64, dt float64) float64 {
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s * dt
}
