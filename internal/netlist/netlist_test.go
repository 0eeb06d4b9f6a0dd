package netlist

import (
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/wave"
)

func TestParseValueSuffixes(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"50k", 50e3}, {"2p", 2e-12}, {"1meg", 1e6}, {"10u", 10e-6},
		{"3.3", 3.3}, {"-5m", -5e-3}, {"1.5n", 1.5e-9}, {"4f", 4e-15},
		{"2g", 2e9}, {"7t", 7e12}, {"100", 100}, {"50kohm", 50e3},
		{"1e3", 1e3}, {"2.5e-6", 2.5e-6},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want) {
			t.Errorf("ParseValue(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", "1.2.3", "5qq"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("ParseValue(%q) accepted", bad)
		}
	}
}

const dividerNetlist = `
* a humble divider
.title divider
V1 in 0 10
R1 in mid 1k
R2 mid 0 1k
.end
`

func TestParseDividerAndSimulate(t *testing.T) {
	c, err := ParseString(dividerNetlist, "x")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "divider" {
		t.Errorf("name = %s, want title", c.Name())
	}
	e, err := sim.New(c, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Voltage(x, "mid"); math.Abs(got-5) > 1e-6 {
		t.Errorf("V(mid) = %g, want 5", got)
	}
}

func TestParseMOSWithModel(t *testing.T) {
	src := `
.model mynmos nmos vt0=0.6 kp=100u lambda=0.03
Vdd vdd 0 5
Vg g 0 1.2
M1 d g 0 mynmos w=20u l=2u
RL vdd d 10k
`
	c, err := ParseString(src, "amp")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := c.Device("M1").(*device.MOSFET)
	if !ok {
		t.Fatal("M1 missing")
	}
	if m.Model.VT0 != 0.6 || math.Abs(m.Model.KP-100e-6) > 1e-12 || m.Model.Lambda != 0.03 {
		t.Errorf("model = %+v", m.Model)
	}
	if math.Abs(m.W-20e-6) > 1e-12 || math.Abs(m.L-2e-6) > 1e-12 {
		t.Errorf("geometry W=%g L=%g", m.W, m.L)
	}
}

func TestModelDefinedAfterUse(t *testing.T) {
	src := `
M1 d g 0 latemodel
Vd d 0 1
Vg g 0 1
.model latemodel nmos
`
	if _, err := ParseString(src, "x"); err != nil {
		t.Fatalf("late model rejected: %v", err)
	}
}

func TestParseSources(t *testing.T) {
	src := `
I1 a 0 sin(20u 5u 10k)
I2 a 0 step(5u 20u 10n 10n)
V1 b 0 pulse(0 5 1n 1n 1n 10n 20n)
V2 b 0 pwl(0 0 1u 5)
I3 a 0 dc 42u
R1 a 0 1k
R2 b 0 1k
`
	c, err := ParseString(src, "src")
	if err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	s1 := c.Device("I1").(*device.ISource).W.(wave.Sine)
	if !near(s1.Offset, 20e-6) || !near(s1.Amplitude, 5e-6) || !near(s1.Freq, 10e3) {
		t.Errorf("sine = %+v", s1)
	}
	s2 := c.Device("I2").(*device.ISource).W.(wave.Step)
	if !near(s2.Base, 5e-6) || !near(s2.Elev, 20e-6) || !near(s2.Delay, 10e-9) || !near(s2.Rise, 10e-9) {
		t.Errorf("step = %+v", s2)
	}
	if _, ok := c.Device("V1").(*device.VSource).W.(wave.Pulse); !ok {
		t.Error("pulse source not parsed")
	}
	if _, ok := c.Device("V2").(*device.VSource).W.(*wave.PWL); !ok {
		t.Error("pwl source not parsed")
	}
	if dc := c.Device("I3").(*device.ISource).W.DC(); math.Abs(dc-42e-6) > 1e-18 {
		t.Errorf("dc source = %g", dc)
	}
}

func TestParseControlledSources(t *testing.T) {
	src := `
V1 c 0 0.5
E1 out 0 c 0 10
G1 0 out2 c 0 1m
R1 out 0 1k
R2 out2 0 1k
`
	c, err := ParseString(src, "ctl")
	if err != nil {
		t.Fatal(err)
	}
	if e := c.Device("E1").(*device.VCVS); e.Gain != 10 {
		t.Errorf("VCVS gain = %g", e.Gain)
	}
	if g := c.Device("G1").(*device.VCCS); math.Abs(g.Gm-1e-3) > 1e-15 {
		t.Errorf("VCCS gm = %g", g.Gm)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"R1 a 0",               // missing value
		"M1 d g 0 nosuchmodel", // unknown model
		"Q1 a b c",             // unsupported element
		"I1 a 0 sin(1)",        // short sine
		"V1 a 0 blorp(1 2)",    // unknown source kind
		".model m1 bjt",        // unsupported model type
		".model m2 nmos vt0",   // malformed parameter
		"M1 d g 0 m w=1u q=2",  // unknown MOS parameter preceded by model
		"I1 a 0 pwl(1 2 3)",    // odd pwl
	}
	for _, src := range bad {
		full := src
		if strings.HasPrefix(src, "M1 d g 0 m ") {
			full = ".model m nmos\n" + src
		}
		if _, err := ParseString(full, "bad"); err == nil {
			t.Errorf("netlist %q accepted", src)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
* header comment
; another comment

V1 a 0 1   ; trailing comment
R1 a 0 1k
`
	c, err := ParseString(src, "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Devices()) != 2 {
		t.Errorf("devices = %d, want 2", len(c.Devices()))
	}
}

func TestFormatRoundTrips(t *testing.T) {
	c, err := ParseString(dividerNetlist, "x")
	if err != nil {
		t.Fatal(err)
	}
	text := Format(c)
	c2, err := ParseString(text, "rt")
	if err != nil {
		t.Fatalf("Format output does not re-parse: %v\n%s", err, text)
	}
	if len(c2.Devices()) != len(c.Devices()) {
		t.Errorf("round trip lost devices: %d -> %d", len(c.Devices()), len(c2.Devices()))
	}
	e, err := sim.New(c2, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Voltage(x, "mid"); math.Abs(got-5) > 1e-6 {
		t.Errorf("round-tripped V(mid) = %g", got)
	}
}

func TestFormatMOSFET(t *testing.T) {
	src := `
.model m nmos
M1 d g 0 m w=5u l=1u
Vd d 0 2
Vg g 0 2
`
	c, err := ParseString(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	text := Format(c)
	if !strings.Contains(text, "M1 d g 0 nmos") {
		t.Errorf("Format output:\n%s", text)
	}
}

// TestParseRejectsPanickingValues: values the device constructors and
// circuit.Add would panic on come back as line-numbered parse errors.
func TestParseRejectsPanickingValues(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"V1 a 0 1\nR1 a 0 0\n", "netlist line 2: device R1: value 0 must be positive"},
		{"C1 a 0 0\n", "netlist line 1: device C1: value 0 must be positive"},
		{"L1 a 0 -1u\n", "netlist line 1: device L1: value -1u must be positive"},
		{"R1 a 0 1k\n* comment\nR1 a b 2k\n", `netlist line 3: duplicate device name "R1"`},
		{".model nm nmos\nM1 d g 0 nm W=0\n", "netlist line 2: MOSFET M1: w=0 and l=1e-06 must be positive"},
		{".model nm nmos\nM1 d g 0 nm L=-1u\n", "netlist line 2: MOSFET M1: w=1e-05 and l=-1e-06 must be positive"},
		{".model qn npn BF=0\nQ1 c b 0 qn\n", "netlist line 1: BJT model qn: is=1e-15, bf=0 and br=2 must be positive"},
	} {
		_, err := ParseString(tc.src, "bad")
		if err == nil || err.Error() != tc.want {
			t.Errorf("netlist %q: error %v, want %q", tc.src, err, tc.want)
		}
	}
}
