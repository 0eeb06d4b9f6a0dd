package wave

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDCWaveform(t *testing.T) {
	w := DC(3.3)
	if w.Value(0) != 3.3 || w.Value(1e9) != 3.3 || w.DC() != 3.3 {
		t.Error("DC waveform is not constant")
	}
}

func TestSineValues(t *testing.T) {
	s := Sine{Offset: 1, Amplitude: 2, Freq: 50}
	if s.DC() != 1 {
		t.Errorf("DC = %g, want offset 1", s.DC())
	}
	if got := s.Value(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Value(0) = %g, want 1", got)
	}
	quarter := 1.0 / (4 * 50)
	if got := s.Value(quarter); math.Abs(got-3) > 1e-9 {
		t.Errorf("Value(T/4) = %g, want 3", got)
	}
}

func TestSinePeriodicity(t *testing.T) {
	f := func(cycles uint8, frac float64) bool {
		s := Sine{Offset: 0.5, Amplitude: 1.5, Freq: 1e3}
		frac = math.Mod(math.Abs(frac), 1)
		t0 := frac / s.Freq
		t1 := t0 + float64(cycles)/s.Freq
		return math.Abs(s.Value(t0)-s.Value(t1)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStepLevelsAndRamp(t *testing.T) {
	s := Step{Base: 1e-6, Elev: 4e-6, Delay: 10e-9, Rise: 10e-9}
	if got := s.Value(0); got != 1e-6 {
		t.Errorf("before delay = %g, want base", got)
	}
	if got := s.Value(10e-9); got != 1e-6 {
		t.Errorf("at delay = %g, want base", got)
	}
	if got := s.Value(15e-9); math.Abs(got-3e-6) > 1e-18 {
		t.Errorf("mid-ramp = %g, want 3e-6", got)
	}
	if got := s.Value(1); math.Abs(got-5e-6) > 1e-18 {
		t.Errorf("after ramp = %g, want base+elev", got)
	}
	if s.DC() != 1e-6 {
		t.Errorf("DC = %g, want base", s.DC())
	}
}

func TestStepIdealEdge(t *testing.T) {
	s := Step{Base: 0, Elev: 1, Delay: 1e-9, Rise: 0}
	if s.Value(1e-9) != 0 {
		t.Error("ideal step should still be at base exactly at the delay")
	}
	if s.Value(1e-9+1e-15) != 1 {
		t.Error("ideal step did not switch immediately after the delay")
	}
}

func TestStepMonotoneDuringRamp(t *testing.T) {
	f := func(a, b float64) bool {
		s := Step{Base: 0, Elev: 2, Delay: 0, Rise: 1}
		a = math.Mod(math.Abs(a), 1)
		b = math.Mod(math.Abs(b), 1)
		if a > b {
			a, b = b, a
		}
		return s.Value(a) <= s.Value(b)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPulseTrain(t *testing.T) {
	p := Pulse{Low: 0, High: 1, Delay: 1, Rise: 0.1, Fall: 0.1, Width: 0.3, Period: 1}
	if p.Value(0.5) != 0 {
		t.Error("before delay should be Low")
	}
	if got := p.Value(1.05); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mid-rise = %g, want 0.5", got)
	}
	if p.Value(1.2) != 1 {
		t.Error("plateau should be High")
	}
	if got := p.Value(1.45); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mid-fall = %g, want 0.5", got)
	}
	if p.Value(1.8) != 0 {
		t.Error("after fall should be Low")
	}
	// Next period repeats.
	if got := p.Value(2.2); got != 1 {
		t.Errorf("second period plateau = %g, want 1", got)
	}
}

func TestPWLInterpolation(t *testing.T) {
	w := NewPWL(Point{0, 0}, Point{1, 10}, Point{3, 10}, Point{4, 0})
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {2, 10}, {3.5, 5}, {4, 0}, {99, 0},
	}
	for _, c := range cases {
		if got := w.Value(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Value(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if w.DC() != 0 {
		t.Errorf("DC = %g, want first point", w.DC())
	}
}

func TestPWLUnsortedInput(t *testing.T) {
	w := NewPWL(Point{2, 4}, Point{0, 0}, Point{1, 2})
	if got := w.Value(0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("Value(0.5) = %g, want 1 after sorting", got)
	}
}

func TestPWLEmpty(t *testing.T) {
	w := NewPWL()
	if w.Value(1) != 0 || w.DC() != 0 {
		t.Error("empty PWL should be identically zero")
	}
}

func TestStringsNonEmpty(t *testing.T) {
	ws := []Waveform{
		DC(1), Sine{}, Step{}, Pulse{}, NewPWL(Point{0, 1}),
	}
	for _, w := range ws {
		if w.String() == "" {
			t.Errorf("%T has empty String()", w)
		}
	}
}
