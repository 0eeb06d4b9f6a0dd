package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

// sine generates n samples of Σ_k amp[k]·sin(2π·k·cycles·i/n + ph[k]).
func synth(n, cycles int, amp map[int]float64, ph map[int]float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n)
		for h, a := range amp {
			out[i] += a * math.Sin(2*math.Pi*float64(h*cycles)*t+ph[h])
		}
	}
	return out
}

func TestGoertzelPureSine(t *testing.T) {
	s := synth(1024, 4, map[int]float64{1: 2.5}, map[int]float64{1: 0.3})
	if got := Amplitude(s, 4); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("fundamental amplitude = %g, want 2.5", got)
	}
	if got := Amplitude(s, 8); got > 1e-9 {
		t.Errorf("2nd harmonic amplitude = %g, want 0", got)
	}
}

func TestGoertzelDCBin(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = 3
	}
	// Bin 0 of a DC signal: magnitude 2·mean (scale 2/N convention).
	if got := Amplitude(s, 0); math.Abs(got-6) > 1e-9 {
		t.Errorf("DC bin = %g, want 6", got)
	}
}

func TestGoertzelEmptyAndNegative(t *testing.T) {
	if Goertzel(nil, 1) != 0 {
		t.Error("empty record should give 0")
	}
	if Goertzel([]float64{1, 2}, -1) != 0 {
		t.Error("negative bin should give 0")
	}
}

func TestTHDKnownMixture(t *testing.T) {
	// 1.0 fundamental + 0.03 second + 0.04 third: THD = 5 %.
	s := synth(4096, 4,
		map[int]float64{1: 1, 2: 0.03, 3: 0.04},
		map[int]float64{1: 0, 2: 1, 3: 2})
	thd, err := THDPercent(s, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(thd-5) > 1e-6 {
		t.Errorf("THD = %g %%, want 5", thd)
	}
}

func TestTHDPureSineIsZero(t *testing.T) {
	s := synth(2048, 2, map[int]float64{1: 1}, map[int]float64{1: 0})
	thd, err := THDPercent(s, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if thd > 1e-9 {
		t.Errorf("THD of pure sine = %g %%, want 0", thd)
	}
}

func TestTHDErrors(t *testing.T) {
	s := synth(1024, 2, map[int]float64{1: 1}, map[int]float64{1: 0})
	if _, err := THDPercent(s, 0, 5); err == nil {
		t.Error("cycles=0 accepted")
	}
	if _, err := THDPercent(s, 2, 1); err == nil {
		t.Error("maxHarmonic=1 accepted")
	}
	if _, err := THDPercent(make([]float64, 8), 2, 5); err == nil {
		t.Error("short record accepted")
	}
	if _, err := THDPercent(make([]float64, 2048), 2, 5); err == nil {
		t.Error("zero fundamental accepted")
	}
}

// TestTHDInvariantToAmplitudeScale: THD is a ratio, so scaling the signal
// must not change it.
func TestTHDInvariantToAmplitudeScale(t *testing.T) {
	f := func(scaleRaw float64) bool {
		scale := 0.1 + math.Mod(math.Abs(scaleRaw), 10)
		base := synth(2048, 2, map[int]float64{1: 1, 3: 0.1}, map[int]float64{1: 0, 3: 0.5})
		scaled := make([]float64, len(base))
		for i, v := range base {
			scaled[i] = v * scale
		}
		a, err1 := THDPercent(base, 2, 5)
		b, err2 := THDPercent(scaled, 2, 5)
		return err1 == nil && err2 == nil && math.Abs(a-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxPeakToPeak(t *testing.T) {
	s := []float64{0.5, -2, 3, 1}
	if Max(s) != 3 {
		t.Error("Max wrong")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("empty Max should be −Inf")
	}
}

func TestAccumulate(t *testing.T) {
	s := []float64{1, 2, 3}
	if got := Accumulate(s, 0.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("Accumulate = %g, want 3", got)
	}
}

// TestGoertzelMatchesNaiveDFT cross-checks the recurrence against the
// direct correlation definition on random-ish signals.
func TestGoertzelMatchesNaiveDFT(t *testing.T) {
	s := synth(512, 3, map[int]float64{1: 1, 2: 0.2, 5: 0.05},
		map[int]float64{1: 0.1, 2: 0.9, 5: 1.7})
	for _, k := range []int{0, 1, 3, 6, 15} {
		// Standard DFT convention: X_k = Σ x·e^{−jωn}.
		var re, im float64
		n := float64(len(s))
		for i, v := range s {
			ang := 2 * math.Pi * float64(k) * float64(i) / n
			re += v * math.Cos(ang)
			im -= v * math.Sin(ang)
		}
		re *= 2 / n
		im *= 2 / n
		g := Goertzel(s, k)
		if math.Abs(real(g)-re) > 1e-9 || math.Abs(imag(g)-im) > 1e-9 {
			t.Errorf("bin %d: goertzel=%v naive=(%g,%g)", k, g, re, im)
		}
	}
}
