package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/macros"
	"repro/internal/wave"
)

// csAmpWithCaps builds a common-source amplifier whose transistor
// carries gate capacitance, so its dynamics come from the device model
// rather than explicit capacitors.
func csAmpWithCaps() (*circuit.Circuit, *device.MOSFET) {
	c := circuit.New("cs-caps")
	mod := device.DefaultNMOSModel().WithGateCaps(3.45e-3, 0.3e-9, 0.3e-9)
	mod.Lambda = 0
	// Sized to sit in saturation: Id = 108 µA, 2.16 V across RL,
	// gm = 0.72 mS, gain ≈ 14.4.
	m := device.NewMOSFET("M1", "d", "g", "0", mod, 20e-6, 1e-6)
	c.Add(device.NewDCVSource("Vdd", "vdd", "0", 5))
	c.Add(device.NewVSource("Vg", "gin", "0", wave.DC(1.0)))
	c.Add(device.NewResistor("Rg", "gin", "g", 100e3))
	c.Add(m)
	c.Add(device.NewResistor("RL", "vdd", "d", 20e3))
	return c, m
}

// csAmpInputCap returns the Miller-multiplied input capacitance of the
// amp at its operating point.
func csAmpInputCap(m *device.MOSFET) float64 {
	gm := 120e-6 * 20 * 0.3 // β·vov
	gain := gm * 20e3
	return m.Cgs() + m.Cgd()*(1+gain)
}

func TestMOSGateCapsCreateACPole(t *testing.T) {
	c, m := csAmpWithCaps()
	e, err := New(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	xop, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	// Input pole from Rg against Cgs + Miller-multiplied Cgd.
	fp := 1 / (2 * math.Pi * 100e3 * csAmpInputCap(m))
	res, err := e.AC(xop, "Vg", []float64{fp / 100, fp})
	if err != nil {
		t.Fatal(err)
	}
	low := res.MagDB(0, "d")
	atPole := res.MagDB(1, "d")
	drop := low - atPole
	if drop < 2 || drop > 4.5 {
		t.Errorf("gain drop at predicted pole = %.2f dB, want ≈ 3 dB", drop)
	}
}

func TestMOSGateCapsSlowTransientEdge(t *testing.T) {
	// With gate caps, a step through Rg charges the gate with
	// tau = Rg·Cin; the output must move gradually, not instantly.
	c, m := csAmpWithCaps()
	const step = 0.05 // small enough to stay in saturation
	vg := c.Device("Vg").(*device.VSource)
	vg.W = wave.Step{Base: 1.0, Elev: step, Delay: 0, Rise: 0}
	e, err := New(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tau := 100e3 * csAmpInputCap(m)
	tr, err := e.Transient(8*tau, tau/50, []string{"d", "g"})
	if err != nil {
		t.Fatal(err)
	}
	g := tr.Signal("g")
	// The Miller capacitance varies with the (moving) gain, so the charge
	// curve is only approximately exponential: demand a gradual charge —
	// clearly away from both instant and frozen — around the linear-RC 63 %.
	covered := (g[50] - g[0]) / step // t = tau estimate
	if covered < 0.35 || covered > 0.9 {
		t.Errorf("gate charge at tau = %.2f of step, want a gradual ~0.63", covered)
	}
	if math.Abs(g[len(g)-1]-(1.0+step)) > 0.002 {
		t.Errorf("final gate = %g, want %g", g[len(g)-1], 1.0+step)
	}
}

func TestCaplessMOSFETTransientUnchanged(t *testing.T) {
	// A capless transistor must respond instantly (static device): the
	// drain settles in the very first step after an ideal gate step.
	c := circuit.New("cs-static")
	mod := device.DefaultNMOSModel()
	mod.Lambda = 0
	c.Add(device.NewDCVSource("Vdd", "vdd", "0", 5))
	c.Add(device.NewVSource("Vg", "g", "0", wave.Step{Base: 1.0, Elev: 0.2, Delay: 0}))
	c.Add(device.NewMOSFET("M1", "d", "g", "0", mod, 10e-6, 1e-6))
	c.Add(device.NewResistor("RL", "vdd", "d", 10e3))
	e, err := New(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Transient(10e-9, 1e-9, []string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Signal("d")
	if math.Abs(d[1]-d[len(d)-1]) > 1e-9 {
		t.Errorf("static transistor should settle instantly: %g vs %g", d[1], d[len(d)-1])
	}
}

// TestGateCapMOSFETKeepsState: a transistor with gate caps keeps its 4
// state words, and its transient is bit-identical to the trace recorded
// before capless transistors left the engine's dynamics and the Newton
// stamps moved to precompiled plans. The IV-converter's transistors
// carry no caps, so its state is only its two capacitors' 4 words.
func TestGateCapMOSFETKeepsState(t *testing.T) {
	c, _ := csAmpWithCaps()
	c.Device("Vg").(*device.VSource).W = wave.Step{Base: 1.0, Elev: 0.05}
	e := newEngine(t, c)
	if e.stateLen != 4 || len(e.dynamics) != 1 {
		t.Errorf("gate-cap amp: %d state words in %d dynamic devices, want 4 in 1", e.stateLen, len(e.dynamics))
	}
	tr, err := e.Transient(40e-9, 1e-9, []string{"d", "g"})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range [][]float64{tr.Times, tr.Signal("d"), tr.Signal("g")} {
		for _, v := range s {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	// Recorded with the engine that stamped every MOSFET through Stamp
	// and kept 4 state words for each.
	const want = "c48a5e277332b7d8f59daeb02b13a877a1021b27495f715b6ccc605a431c83bb"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("gate-cap transient digest %s, want %s", got, want)
	}

	iv := newEngine(t, macros.IVConverter())
	if iv.stateLen != 4 || len(iv.dynamics) != 2 {
		t.Errorf("IV-converter: %d state words in %d dynamic devices, want 4 in 2", iv.stateLen, len(iv.dynamics))
	}
}
