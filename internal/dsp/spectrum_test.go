package dsp

import (
	"math"
	"testing"
)

func TestAnalyzeSpectrumPicksComponents(t *testing.T) {
	s := synth(2048, 4, map[int]float64{1: 1, 3: 0.1}, map[int]float64{1: 0, 3: 1})
	sp, err := AnalyzeSpectrum(s, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.Amp[4]-1) > 1e-9 {
		t.Errorf("fundamental = %g, want 1", sp.Amp[4])
	}
	if math.Abs(sp.Amp[12]-0.1) > 1e-9 {
		t.Errorf("3rd harmonic = %g, want 0.1", sp.Amp[12])
	}
	if sp.Amp[8] > 1e-9 {
		t.Errorf("2nd harmonic = %g, want 0", sp.Amp[8])
	}
}

func TestSpectrumDCBin(t *testing.T) {
	s := make([]float64, 256)
	for i := range s {
		s[i] = 2 + math.Sin(2*math.Pi*4*float64(i)/256)
	}
	sp, err := AnalyzeSpectrum(s, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.Amp[0]-2) > 1e-9 {
		t.Errorf("DC bin = %g, want the mean 2", sp.Amp[0])
	}
}

func TestAnalyzeSpectrumErrors(t *testing.T) {
	if _, err := AnalyzeSpectrum(nil, 1, 4); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := AnalyzeSpectrum(make([]float64, 64), 0, 4); err == nil {
		t.Error("zero fundamental accepted")
	}
	if _, err := AnalyzeSpectrum(make([]float64, 64), 8, 4); err == nil {
		t.Error("fundamental above maxBin accepted")
	}
}

func TestSINADKnownRatio(t *testing.T) {
	// 1.0 fundamental + 0.01 spur: SINAD = 40 dB.
	s := synth(4096, 4, map[int]float64{1: 1, 5: 0.01}, map[int]float64{1: 0, 5: 0.7})
	sp, err := AnalyzeSpectrum(s, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	sinad, err := sp.SINADdB()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sinad-40) > 0.1 {
		t.Errorf("SINAD = %g dB, want 40", sinad)
	}
}

func TestSpectrumZeroFundamentalErrors(t *testing.T) {
	s := make([]float64, 256) // silence
	sp, err := AnalyzeSpectrum(s, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.SINADdB(); err == nil {
		t.Error("SINAD of silence accepted")
	}
}
