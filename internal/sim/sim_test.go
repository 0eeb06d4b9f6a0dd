package sim

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/wave"
)

func newEngine(t *testing.T, c *circuit.Circuit) *Engine {
	t.Helper()
	e, err := New(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOPLinearDivider(t *testing.T) {
	c := circuit.New("div")
	c.Add(device.NewDCVSource("V1", "in", "0", 10))
	c.Add(device.NewResistor("R1", "in", "mid", 1e3))
	c.Add(device.NewResistor("R2", "mid", "0", 3e3))
	e := newEngine(t, c)
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Voltage(x, "mid"); math.Abs(got-7.5) > 1e-6 {
		t.Errorf("V(mid) = %g, want 7.5", got)
	}
	i, err := e.BranchCurrent(x, "V1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(-i-2.5e-3) > 1e-9 {
		t.Errorf("supply current = %g, want 2.5mA", -i)
	}
}

func TestOPDiodeResistor(t *testing.T) {
	c := circuit.New("diode")
	c.Add(device.NewDCVSource("V1", "in", "0", 5))
	c.Add(device.NewResistor("R1", "in", "a", 1e3))
	c.Add(device.NewDiode("D1", "a", "0", nil))
	e := newEngine(t, c)
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	va := e.Voltage(x, "a")
	if va < 0.55 || va > 0.75 {
		t.Errorf("diode drop = %g, want 0.55..0.75", va)
	}
	// KCL: resistor current equals diode current.
	d := c.Device("D1").(*device.Diode)
	ir := (5 - va) / 1e3
	if math.Abs(d.Current(x)-ir) > 1e-6 {
		t.Errorf("KCL: id=%g ir=%g", d.Current(x), ir)
	}
}

func TestOPCommonSourceAmp(t *testing.T) {
	// NMOS common source with resistive load; verify against the
	// analytic level-1 saturation solution.
	c := circuit.New("cs")
	c.Add(device.NewDCVSource("Vdd", "vdd", "0", 5))
	c.Add(device.NewDCVSource("Vg", "g", "0", 1.2))
	mod := device.DefaultNMOSModel()
	mod.Lambda = 0
	c.Add(device.NewMOSFET("M1", "d", "g", "0", mod, 20e-6, 2e-6))
	c.Add(device.NewResistor("RL", "vdd", "d", 100e3))
	e := newEngine(t, c)
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	// Id(sat) = 0.5*120u*10*(0.5)^2 = 150 µA -> but that would drop 15 V;
	// the transistor must actually sit in triode. Just verify KCL and
	// region consistency.
	m := c.Device("M1").(*device.MOSFET)
	id := m.DrainCurrent(x)
	ir := (5 - e.Voltage(x, "d")) / 100e3
	if math.Abs(id-ir) > 1e-9 {
		t.Errorf("KCL: id=%g ir=%g", id, ir)
	}
	if m.Region(x) != "triode" {
		t.Errorf("region = %s, want triode for this bias", m.Region(x))
	}
}

func TestOPSaturatedMOSAnalytic(t *testing.T) {
	// Small load keeps the device saturated: Vd = 5 − R·Id.
	c := circuit.New("sat")
	c.Add(device.NewDCVSource("Vdd", "vdd", "0", 5))
	c.Add(device.NewDCVSource("Vg", "g", "0", 1.0))
	mod := device.DefaultNMOSModel()
	mod.Lambda = 0
	c.Add(device.NewMOSFET("M1", "d", "g", "0", mod, 10e-6, 1e-6))
	c.Add(device.NewResistor("RL", "vdd", "d", 10e3))
	e := newEngine(t, c)
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	id := 0.5 * mod.KP * 10 * 0.3 * 0.3 // 54 µA
	wantVd := 5 - 10e3*id
	if got := e.Voltage(x, "d"); math.Abs(got-wantVd) > 1e-4 {
		t.Errorf("V(d) = %g, want %g", got, wantVd)
	}
}

func TestOPCMOSInverterColdStart(t *testing.T) {
	// Inverter biased at its switching threshold region: a classic
	// convergence stress.
	c := circuit.New("inv")
	c.Add(device.NewDCVSource("Vdd", "vdd", "0", 5))
	c.Add(device.NewDCVSource("Vin", "in", "0", 2.5))
	c.Add(device.NewMOSFET("MN", "out", "in", "0", device.DefaultNMOSModel(), 10e-6, 1e-6))
	c.Add(device.NewMOSFET("MP", "out", "in", "vdd", device.DefaultPMOSModel(), 30e-6, 1e-6))
	e := newEngine(t, c)
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	vout := e.Voltage(x, "out")
	if vout < 0 || vout > 5 {
		t.Errorf("V(out) = %g outside the rails", vout)
	}
	// KCL at out: NMOS and PMOS drain currents must cancel.
	in := c.Device("MN").(*device.MOSFET).DrainCurrent(x)
	ip := c.Device("MP").(*device.MOSFET).DrainCurrent(x)
	if math.Abs(in+ip) > 1e-7 {
		t.Errorf("KCL at out: in=%g ip=%g", in, ip)
	}
}

func TestCMOSInverterTransferMonotone(t *testing.T) {
	c := circuit.New("inv")
	c.Add(device.NewDCVSource("Vdd", "vdd", "0", 5))
	c.Add(device.NewDCVSource("Vin", "in", "0", 0))
	c.Add(device.NewMOSFET("MN", "out", "in", "0", device.DefaultNMOSModel(), 10e-6, 1e-6))
	c.Add(device.NewMOSFET("MP", "out", "in", "vdd", device.DefaultPMOSModel(), 30e-6, 1e-6))
	// Weak load keeps out defined in the cutoff corners.
	c.Add(device.NewResistor("RL", "out", "0", 10e6))
	e := newEngine(t, c)
	sols, err := e.SweepDC("Vin", LinSpace(0, 5, 26))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for i, x := range sols {
		v := e.Voltage(x, "out")
		if v > prev+1e-6 {
			t.Fatalf("inverter transfer not monotone at point %d: %g > %g", i, v, prev)
		}
		prev = v
	}
	first := e.Voltage(sols[0], "out")
	last := e.Voltage(sols[len(sols)-1], "out")
	if first < 4.5 || last > 0.5 {
		t.Errorf("transfer endpoints %g..%g, want ~5..~0", first, last)
	}
}

func TestTransientRCCharge(t *testing.T) {
	// Step a series RC with a voltage source: v_C(t) = V(1 - exp(-t/tau)).
	c := circuit.New("rc")
	c.Add(device.NewVSource("V1", "in", "0", wave.Step{Base: 0, Elev: 1, Delay: 0, Rise: 0}))
	c.Add(device.NewResistor("R1", "in", "out", 1e3))
	c.Add(device.NewCapacitor("C1", "out", "0", 1e-6))
	e := newEngine(t, c)
	tau := 1e-3
	tr, err := e.Transient(tau, tau/1000, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Signal("out")[tr.Len()-1]
	want := 1 - math.Exp(-1)
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("v(tau) = %g, want %g", got, want)
	}
}

func TestTransientRCSineSteadyState(t *testing.T) {
	// RC low-pass at the corner frequency: gain 1/sqrt(2), phase -45°.
	rc := 1e-3 // R=1k, C=1µ
	f := 1 / (2 * math.Pi * rc)
	c := circuit.New("rcsine")
	c.Add(device.NewVSource("V1", "in", "0", wave.Sine{Amplitude: 1, Freq: f}))
	c.Add(device.NewResistor("R1", "in", "out", 1e3))
	c.Add(device.NewCapacitor("C1", "out", "0", 1e-6))
	e := newEngine(t, c)
	period := 1 / f
	tr, err := e.Transient(6*period, period/400, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	// Peak of the last period.
	n := tr.Len()
	peak := 0.0
	for i := n - 400; i < n; i++ {
		if v := math.Abs(tr.Signal("out")[i]); v > peak {
			peak = v
		}
	}
	if math.Abs(peak-1/math.Sqrt2) > 0.01 {
		t.Errorf("steady-state peak = %g, want %g", peak, 1/math.Sqrt2)
	}
}

func TestTransientRecordsTimeAxis(t *testing.T) {
	c := circuit.New("rc")
	c.Add(device.NewDCVSource("V1", "in", "0", 1))
	c.Add(device.NewResistor("R1", "in", "out", 1e3))
	c.Add(device.NewCapacitor("C1", "out", "0", 1e-9))
	e := newEngine(t, c)
	tr, err := e.Transient(1e-6, 1e-7, []string{"out", "in"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 11 {
		t.Fatalf("points = %d, want 11 (t=0 plus 10 steps)", tr.Len())
	}
	if tr.Times[0] != 0 || math.Abs(tr.Times[10]-1e-6) > 1e-15 {
		t.Errorf("time axis = [%g..%g], want [0..1e-6]", tr.Times[0], tr.Times[10])
	}
	if len(tr.Signal("in")) != 11 {
		t.Error("second probe not recorded")
	}
}

// TestTransientIntoRefills: a trace refilled by TransientInto holds
// exactly what a fresh Transient records — whatever run filled it
// before, shorter, longer or with other probes — and keeps its slices
// once they are large enough.
func TestTransientIntoRefills(t *testing.T) {
	c := circuit.New("rc")
	c.Add(device.NewVSource("V1", "in", "0", wave.Step{Base: 0, Elev: 1, Delay: 1e-7, Rise: 1e-8}))
	c.Add(device.NewResistor("R1", "in", "out", 1e3))
	c.Add(device.NewCapacitor("C1", "out", "0", 1e-9))
	e := newEngine(t, c)
	var tr Trace
	for _, run := range []struct {
		stop   float64
		probes []string
	}{
		{2e-6, []string{"out"}},
		{1e-6, []string{"in", "0"}},
		{3e-6, []string{"out", "in"}},
		{3e-6, []string{"out", "in"}},
	} {
		prev := tr.Times
		if err := e.TransientInto(&tr, run.stop, 1e-8, run.probes); err != nil {
			t.Fatal(err)
		}
		want, err := e.Transient(run.stop, 1e-8, run.probes)
		if err != nil {
			t.Fatal(err)
		}
		if cap(prev) >= len(want.Times) && &tr.Times[0] != &prev[:1][0] {
			t.Errorf("stop %g: time axis reallocated although it had room", run.stop)
		}
		if len(tr.Signals) != len(run.probes) {
			t.Errorf("stop %g: %d signals, want %d", run.stop, len(tr.Signals), len(run.probes))
		}
		for _, p := range append([]string{"time"}, run.probes...) {
			got, exp := tr.Times, want.Times
			if p != "time" {
				got, exp = tr.Signal(p), want.Signal(p)
			}
			if len(got) != len(exp) {
				t.Fatalf("stop %g %s: %d samples, want %d", run.stop, p, len(got), len(exp))
			}
			for i := range exp {
				if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
					t.Fatalf("stop %g %s[%d] = %g, want %g", run.stop, p, i, got[i], exp[i])
				}
			}
		}
	}
}

// TestTransientUnknownProbe: an unknown probe node is an error, found
// before the analysis simulates anything.
func TestTransientUnknownProbe(t *testing.T) {
	c := circuit.New("r")
	c.Add(device.NewDCVSource("V1", "in", "0", 1))
	c.Add(device.NewResistor("R1", "in", "0", 1e3))
	e := newEngine(t, c)
	_, err := e.Transient(1e-6, 1e-7, []string{"in", "Nope"})
	if want := `sim: transient probe: unknown node "Nope"`; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if st := e.Stats(); st.NewtonIterations != 0 {
		t.Errorf("%d Newton iterations before the probe was rejected", st.NewtonIterations)
	}
}

func TestTransientRejectsBadWindow(t *testing.T) {
	c := circuit.New("r")
	c.Add(device.NewDCVSource("V1", "in", "0", 1))
	c.Add(device.NewResistor("R1", "in", "0", 1e3))
	e := newEngine(t, c)
	if _, err := e.Transient(0, 1e-9, nil); err == nil {
		t.Error("stop=0 accepted")
	}
	if _, err := e.Transient(1e-6, 0, nil); err == nil {
		t.Error("dt=0 accepted")
	}
}

func TestSweepDCDiodeMonotone(t *testing.T) {
	c := circuit.New("d")
	c.Add(device.NewDCISource("I1", "a", "0", 0))
	c.Add(device.NewDiode("D1", "a", "0", nil))
	e := newEngine(t, c)
	sols, err := e.SweepDC("I1", LinSpace(1e-6, 1e-3, 20))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i, x := range sols {
		v := e.Voltage(x, "a")
		if v <= prev {
			t.Fatalf("diode V not increasing at point %d", i)
		}
		prev = v
	}
}

func TestSweepDCRestoresSource(t *testing.T) {
	c := circuit.New("d")
	src := device.NewDCISource("I1", "a", "0", 42e-6)
	c.Add(src)
	c.Add(device.NewResistor("R1", "a", "0", 1e3))
	e := newEngine(t, c)
	if _, err := e.SweepDC("I1", []float64{1e-6, 2e-6}); err != nil {
		t.Fatal(err)
	}
	if src.W.DC() != 42e-6 {
		t.Errorf("sweep did not restore the source waveform: %v", src.W)
	}
}

func TestSweepDCUnknownSource(t *testing.T) {
	c := circuit.New("d")
	c.Add(device.NewDCVSource("V1", "a", "0", 1))
	c.Add(device.NewResistor("R1", "a", "0", 1e3))
	e := newEngine(t, c)
	if _, err := e.SweepDC("nope", []float64{1}); err == nil {
		t.Error("unknown sweep source accepted")
	}
	if _, err := e.SweepDC("R1", []float64{1}); err == nil {
		t.Error("non-source sweep device accepted")
	}
}

func TestACRCLowPass(t *testing.T) {
	c := circuit.New("lp")
	c.Add(device.NewVSource("V1", "in", "0", wave.DC(0)))
	c.Add(device.NewResistor("R1", "in", "out", 1e3))
	c.Add(device.NewCapacitor("C1", "out", "0", 1e-6))
	e := newEngine(t, c)
	xop, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	fc := 1 / (2 * math.Pi * 1e-3)
	res, err := e.AC(xop, "V1", []float64{fc / 100, fc, fc * 100})
	if err != nil {
		t.Fatal(err)
	}
	if db := res.MagDB(0, "out"); math.Abs(db) > 0.01 {
		t.Errorf("passband gain = %g dB, want 0", db)
	}
	if db := res.MagDB(1, "out"); math.Abs(db+3.0103) > 0.05 {
		t.Errorf("corner gain = %g dB, want -3.01", db)
	}
	if ph := res.PhaseDeg(1, "out"); math.Abs(ph+45) > 0.5 {
		t.Errorf("corner phase = %g°, want -45", ph)
	}
	if db := res.MagDB(2, "out"); db > -35 {
		t.Errorf("stopband gain = %g dB, want ≈ -40", db)
	}
}

func TestACMOSAmpGain(t *testing.T) {
	// Common-source amp small-signal gain ≈ −gm·RL (λ=0 ⇒ exactly).
	c := circuit.New("cs")
	c.Add(device.NewDCVSource("Vdd", "vdd", "0", 5))
	c.Add(device.NewDCVSource("Vg", "g", "0", 1.0))
	mod := device.DefaultNMOSModel()
	mod.Lambda = 0
	c.Add(device.NewMOSFET("M1", "d", "g", "0", mod, 10e-6, 1e-6))
	c.Add(device.NewResistor("RL", "vdd", "d", 10e3))
	e := newEngine(t, c)
	xop, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AC(xop, "Vg", []float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	gm := mod.KP * 10 * 0.3 // β·vov
	want := gm * 10e3
	got := res.Voltage(0, "d")
	if math.Abs(real(got)+want) > 1e-6 || math.Abs(imag(got)) > 1e-9 {
		t.Errorf("gain = %v, want %g∠180°", got, want)
	}
}

func TestLinLogSpace(t *testing.T) {
	lin := LinSpace(0, 10, 11)
	if len(lin) != 11 || lin[0] != 0 || lin[10] != 10 || lin[5] != 5 {
		t.Errorf("LinSpace wrong: %v", lin)
	}
	lg := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(lg[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("LogSpace[%d] = %g, want %g", i, lg[i], want[i])
		}
	}
	if got := LinSpace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("LinSpace n=1 = %v", got)
	}
}

func TestBranchCurrentErrors(t *testing.T) {
	c := circuit.New("r")
	c.Add(device.NewDCVSource("V1", "a", "0", 1))
	c.Add(device.NewResistor("R1", "a", "0", 1e3))
	e := newEngine(t, c)
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BranchCurrent(x, "R1"); err == nil {
		t.Error("resistor branch current accepted")
	}
	if _, err := e.BranchCurrent(x, "zzz"); err == nil {
		t.Error("unknown device accepted")
	}
}
