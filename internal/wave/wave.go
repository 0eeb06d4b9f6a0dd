// Package wave defines the stimulus waveforms that test configurations
// attach to controlled nodes: DC levels, sine waves, slew-limited steps,
// pulses and piecewise-linear ramps.
//
// A Waveform is a pure function of time; independent sources in the
// device package evaluate it at each operating point or time step. The
// value at t = 0 (more precisely, DC()) is used for the DC operating
// point that seeds a transient run.
package wave

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Waveform is a scalar stimulus as a function of time in seconds. Values
// are in the unit of the hosting source (volts or amperes).
type Waveform interface {
	// Value returns the stimulus level at time t ≥ 0.
	Value(t float64) float64
	// DC returns the level used for DC/operating-point analysis.
	DC() float64
	// String returns a compact human-readable description, used when a
	// test configuration description is printed (cf. paper Fig. 1).
	String() string
}

// DC is a constant waveform.
type DC float64

// Value implements Waveform.
func (d DC) Value(float64) float64 { return float64(d) }

// DC implements Waveform.
func (d DC) DC() float64 { return float64(d) }

// String implements Waveform.
func (d DC) String() string { return fmt.Sprintf("dc(%.6g)", float64(d)) }

// Sine is offset + amplitude·sin(2πf·t + phase).
type Sine struct {
	Offset    float64
	Amplitude float64
	Freq      float64 // Hz
	Phase     float64 // radians
}

// Value implements Waveform.
func (s Sine) Value(t float64) float64 {
	return s.Offset + s.Amplitude*math.Sin(2*math.Pi*s.Freq*t+s.Phase)
}

// DC implements Waveform. The operating point that precedes a transient
// run is taken at the DC offset, matching the paper's sine configuration
// where Iin,dc sets the bias and the 5 µA sine rides on top.
func (s Sine) DC() float64 { return s.Offset }

// String implements Waveform.
func (s Sine) String() string {
	return fmt.Sprintf("sine(dc=%.6g, amp=%.6g, f=%.6g)", s.Offset, s.Amplitude, s.Freq)
}

// Step is the paper's step stimulus (Fig. 1): the level is Base until
// Delay, ramps linearly during Rise (the slew-rate control), and stays at
// Base+Elev afterwards.
type Step struct {
	Base  float64
	Elev  float64
	Delay float64 // seconds before the edge starts
	Rise  float64 // edge duration; 0 means an ideal step
}

// Value implements Waveform.
func (s Step) Value(t float64) float64 {
	switch {
	case t <= s.Delay:
		return s.Base
	case s.Rise <= 0 || t >= s.Delay+s.Rise:
		return s.Base + s.Elev
	default:
		return s.Base + s.Elev*(t-s.Delay)/s.Rise
	}
}

// DC implements Waveform: a transient starts from the pre-step level.
func (s Step) DC() float64 { return s.Base }

// String implements Waveform.
func (s Step) String() string {
	return fmt.Sprintf("step(base=%.6g, elev=%.6g, t0=%.3g, rise=%.3g)", s.Base, s.Elev, s.Delay, s.Rise)
}

// Pulse is a periodic trapezoidal pulse train in the style of SPICE's
// PULSE source.
type Pulse struct {
	Low, High  float64
	Delay      float64
	Rise, Fall float64
	Width      float64 // time at High
	Period     float64 // 0 means single-shot
}

// Value implements Waveform.
func (p Pulse) Value(t float64) float64 {
	if t < p.Delay {
		return p.Low
	}
	tt := t - p.Delay
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	switch {
	case tt < p.Rise:
		if p.Rise <= 0 {
			return p.High
		}
		return p.Low + (p.High-p.Low)*tt/p.Rise
	case tt < p.Rise+p.Width:
		return p.High
	case tt < p.Rise+p.Width+p.Fall:
		if p.Fall <= 0 {
			return p.Low
		}
		return p.High - (p.High-p.Low)*(tt-p.Rise-p.Width)/p.Fall
	default:
		return p.Low
	}
}

// DC implements Waveform.
func (p Pulse) DC() float64 { return p.Low }

// String implements Waveform.
func (p Pulse) String() string {
	return fmt.Sprintf("pulse(lo=%.6g, hi=%.6g, d=%.3g, tr=%.3g, w=%.3g, tf=%.3g, per=%.3g)",
		p.Low, p.High, p.Delay, p.Rise, p.Width, p.Fall, p.Period)
}

// Point is one breakpoint of a piecewise-linear waveform.
type Point struct {
	T, V float64
}

// PWL is a piecewise-linear waveform through a sorted sequence of
// breakpoints, constant before the first and after the last.
type PWL struct {
	points []Point
}

// NewPWL builds a PWL waveform. Points are sorted by time; duplicate
// times keep the later value (a vertical step).
func NewPWL(points ...Point) *PWL {
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].T < ps[j].T })
	return &PWL{points: ps}
}

// Value implements Waveform.
func (p *PWL) Value(t float64) float64 {
	ps := p.points
	if len(ps) == 0 {
		return 0
	}
	if t <= ps[0].T {
		return ps[0].V
	}
	if t >= ps[len(ps)-1].T {
		return ps[len(ps)-1].V
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].T > t }) - 1
	a, b := ps[i], ps[i+1]
	if b.T == a.T {
		return b.V
	}
	return a.V + (b.V-a.V)*(t-a.T)/(b.T-a.T)
}

// DC implements Waveform.
func (p *PWL) DC() float64 {
	if len(p.points) == 0 {
		return 0
	}
	return p.points[0].V
}

// String implements Waveform.
func (p *PWL) String() string {
	var b strings.Builder
	b.WriteString("pwl(")
	for i, pt := range p.points {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.3g:%.6g", pt.T, pt.V)
	}
	b.WriteString(")")
	return b.String()
}
