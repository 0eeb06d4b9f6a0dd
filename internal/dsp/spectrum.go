package dsp

import (
	"fmt"
	"math"
)

// Spectrum metrics beyond plain THD, for richer mixed-signal return
// values: SINAD, the return value of the extended configuration #6, is
// the standard dynamic ATE measurement a production flow would add next
// to the paper's THD configuration.

// Spectrum holds the single-sided amplitude spectrum of a coherent
// record: Amp[k] is the amplitude of the k-cycles-per-record bin.
type Spectrum struct {
	Amp []float64
	// Fundamental is the bin index of the stimulus fundamental.
	Fundamental int
}

// AnalyzeSpectrum computes bins 0..maxBin of a coherent record via
// Goertzel and marks the fundamental at `cycles` cycles per record.
func AnalyzeSpectrum(samples []float64, cycles, maxBin int) (*Spectrum, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dsp: empty record")
	}
	if cycles < 1 || cycles > maxBin {
		return nil, fmt.Errorf("dsp: fundamental %d outside spectrum 0..%d", cycles, maxBin)
	}
	if maxBin >= len(samples)/2 {
		maxBin = len(samples)/2 - 1
	}
	sp := &Spectrum{Amp: make([]float64, maxBin+1), Fundamental: cycles}
	for k := 0; k <= maxBin; k++ {
		sp.Amp[k] = Amplitude(samples, k)
	}
	// The DC bin's 2/N scaling convention counts the mean twice.
	sp.Amp[0] /= 2
	return sp, nil
}

// SINADdB returns the signal to noise-and-distortion ratio in dB: the
// fundamental power against everything else except DC.
func (sp *Spectrum) SINADdB() (float64, error) {
	sig := sp.Amp[sp.Fundamental]
	if sig <= 0 {
		return 0, fmt.Errorf("dsp: zero fundamental")
	}
	noise := 0.0
	for k, a := range sp.Amp {
		if k == 0 || k == sp.Fundamental {
			continue
		}
		noise += a * a
	}
	if noise <= 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(sig*sig/noise), nil
}
