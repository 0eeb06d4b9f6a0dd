package netlist

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSubcktFlattening(t *testing.T) {
	src := `
.title sub-divider
.subckt divider in out
R1 in out 1k
R2 out 0 1k
.ends
V1 top 0 10
X1 top mid divider
`
	c, err := ParseString(src, "x")
	if err != nil {
		t.Fatal(err)
	}
	if c.Device("X1.R1") == nil || c.Device("X1.R2") == nil {
		t.Fatalf("flattened devices missing: %s", c.String())
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

func TestSubcktInternalNodesPrefixed(t *testing.T) {
	src := `
.subckt rr a b
R1 a m 1k
R2 m b 1k
.ends
V1 in 0 4
X1 in out rr
RL out 0 2k
`
	c, err := ParseString(src, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasNode("X1.m") {
		t.Errorf("internal node not prefixed; nodes = %v", c.Nodes())
	}
	e, err := sim.New(c, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	// 4 V across 1k+1k+2k -> 2 V at out.
	if got := e.Voltage(x, "out"); math.Abs(got-2) > 1e-6 {
		t.Errorf("V(out) = %g, want 2", got)
	}
}

func TestSubcktMultipleInstances(t *testing.T) {
	src := `
.subckt half a b
R1 a b 1k
.ends
V1 in 0 3
X1 in m half
X2 m 0 half
`
	c, err := ParseString(src, "x")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(c, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Voltage(x, "m"); math.Abs(got-1.5) > 1e-6 {
		t.Errorf("V(m) = %g, want 1.5", got)
	}
}

func TestSubcktNested(t *testing.T) {
	src := `
.subckt unit a b
R1 a b 1k
.ends
.subckt pair a b
X1 a m unit
X2 m b unit
.ends
V1 in 0 2
X9 in 0 pair
`
	c, err := ParseString(src, "x")
	if err != nil {
		t.Fatal(err)
	}
	// Expect fully-flattened names like X9.X1.R1 and the nested internal
	// node X9.m.
	found := false
	for _, d := range c.Devices() {
		if strings.HasPrefix(d.Name(), "X9.X1.") {
			found = true
		}
	}
	if !found {
		t.Errorf("nested flattening missing: %s", c.String())
	}
	if !c.HasNode("X9.m") {
		t.Errorf("nested internal node missing; nodes = %v", c.Nodes())
	}
}

func TestSubcktWithMOSAndModel(t *testing.T) {
	src := `
.subckt inv in out vdd
.model n nmos
.model p pmos
MN out in 0 n w=10u l=1u
MP out in vdd p w=30u l=1u
.ends
Vdd vdd 0 5
Vin in 0 2.5
X1 in out vdd inv
RL out 0 10meg
`
	c, err := ParseString(src, "x")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(c, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	v := e.Voltage(x, "out")
	if v < 0 || v > 5 {
		t.Errorf("inverter out = %g outside rails", v)
	}
}

func TestSubcktErrors(t *testing.T) {
	cases := map[string]string{
		"unterminated": ".subckt s a\nR1 a 0 1k\n",
		"ends-without": ".ends\n",
		"nested-def":   ".subckt a x\n.subckt b y\n.ends\n.ends\n",
		"unknown-sub":  "V1 a 0 1\nX1 a nosuch\n",
		"port-arity":   ".subckt s a b\nR1 a b 1k\n.ends\nV1 x 0 1\nX1 x s\n",
		"dup-def":      ".subckt s a\nR1 a 0 1\n.ends\n.subckt s a\nR1 a 0 1\n.ends\n",
	}
	for name, src := range cases {
		if _, err := ParseString(src, name); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSubcktRecursionBounded(t *testing.T) {
	src := `
.subckt loop a
X1 a loop
.ends
V1 n 0 1
X1 n loop
`
	if _, err := ParseString(src, "loop"); err == nil {
		t.Error("recursive subcircuit accepted")
	}
}

// TestSubcktExpansionBounded: three instances per level of a recursive
// definition would flatten to 3^16 lines before the depth bound fires;
// the size bound stops the expansion first.
func TestSubcktExpansionBounded(t *testing.T) {
	src := ".subckt a p\nX1 p a\nX2 p a\nX3 p a\n.ends\nX p a\n"
	_, err := ParseString(src, "bomb")
	if want := "netlist: line 4: subcircuit expansion exceeds 65536 lines"; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

func TestSubcktGroundStaysGlobal(t *testing.T) {
	src := `
.subckt g a
R1 a 0 1k
.ends
V1 n 0 1
X1 n g
`
	c, err := ParseString(src, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if strings.Contains(n, ".0") {
			t.Errorf("ground was prefixed: %v", c.Nodes())
		}
	}
}
