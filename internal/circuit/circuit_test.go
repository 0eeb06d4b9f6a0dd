package circuit

import (
	"strings"
	"testing"

	"repro/internal/device"
)

func divider() *Circuit {
	c := New("divider")
	c.Add(device.NewDCVSource("V1", "in", "0", 10))
	c.Add(device.NewResistor("R1", "in", "mid", 1e3))
	c.Add(device.NewResistor("R2", "mid", "0", 1e3))
	return c
}

func TestCompileAssignsIndices(t *testing.T) {
	c := divider()
	lay, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumNodes != 2 {
		t.Fatalf("NumNodes = %d, want 2", lay.NumNodes)
	}
	if lay.NumBranches != 1 {
		t.Fatalf("NumBranches = %d, want 1", lay.NumBranches)
	}
	if lay.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", lay.Dim())
	}
	r1 := c.Device("R1")
	if r1.Terminals() == nil {
		t.Fatal("R1 not resolved")
	}
	// Branch index comes after nodes.
	v1 := c.Device("V1").(*device.VSource)
	if v1.BranchBase() != 2 {
		t.Errorf("branch base = %d, want 2", v1.BranchBase())
	}
}

func TestGroundAliases(t *testing.T) {
	for _, g := range []string{"0", "gnd", "GND", ""} {
		if !IsGround(g) {
			t.Errorf("IsGround(%q) = false", g)
		}
	}
	if IsGround("Vdd") {
		t.Error("Vdd must not be ground")
	}
}

func TestNodesSortedAndGroundFree(t *testing.T) {
	c := divider()
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0] != "in" || nodes[1] != "mid" {
		t.Errorf("Nodes = %v, want [in mid]", nodes)
	}
	all := c.AllNodes()
	if len(all) != 3 || all[0] != "0" {
		t.Errorf("AllNodes = %v, want ground first", all)
	}
}

func TestDuplicateDevicePanics(t *testing.T) {
	c := New("x")
	c.Add(device.NewResistor("R1", "a", "0", 1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	c.Add(device.NewResistor("R1", "a", "0", 2))
}

func TestRemoveDevice(t *testing.T) {
	c := divider()
	if !c.Remove("R2") {
		t.Fatal("Remove R2 = false")
	}
	if c.Remove("R2") {
		t.Fatal("second Remove R2 = true")
	}
	if c.Device("R2") != nil {
		t.Fatal("R2 still present")
	}
	if len(c.Devices()) != 2 {
		t.Fatalf("device count = %d, want 2", len(c.Devices()))
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := divider()
	cc := c.Clone()
	r := cc.Device("R1").(*device.Resistor)
	r.R = 9e9
	if c.Device("R1").(*device.Resistor).R != 1e3 {
		t.Error("clone shares device storage with original")
	}
	if _, err := cc.Compile(); err != nil {
		t.Fatalf("clone does not compile: %v", err)
	}
}

func TestDanglingNodeRejected(t *testing.T) {
	c := New("bad")
	c.Add(device.NewDCVSource("V1", "in", "0", 1))
	c.Add(device.NewResistor("R1", "in", "nowhere", 1e3))
	if _, err := c.Compile(); err == nil {
		t.Fatal("dangling node accepted")
	} else if !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("error %q does not name the dangling node", err)
	}
}

func TestNoGroundRejected(t *testing.T) {
	c := New("floating")
	c.Add(device.NewDCVSource("V1", "a", "b", 1))
	c.Add(device.NewResistor("R1", "a", "b", 1e3))
	if _, err := c.Compile(); err == nil {
		t.Fatal("ground-free circuit accepted")
	}
}

func TestEmptyCircuitRejected(t *testing.T) {
	if _, err := New("empty").Compile(); err == nil {
		t.Fatal("empty circuit accepted")
	}
}

func TestNodeVoltage(t *testing.T) {
	c := divider()
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	x := []float64{10, 5, -5e-3}
	if got := c.NodeVoltage(x, "mid"); got != 5 {
		t.Errorf("V(mid) = %g, want 5", got)
	}
	if got := c.NodeVoltage(x, "0"); got != 0 {
		t.Errorf("V(0) = %g, want 0", got)
	}
}

func TestNodeVoltagePanicsOnUnknown(t *testing.T) {
	c := divider()
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown node did not panic")
		}
	}()
	c.NodeVoltage([]float64{0, 0, 0}, "bogus")
}

func TestHasNode(t *testing.T) {
	c := divider()
	if !c.HasNode("mid") || !c.HasNode("0") {
		t.Error("HasNode false negatives")
	}
	if c.HasNode("xyz") {
		t.Error("HasNode false positive")
	}
}

// TestHasNodeWithoutAllocation: HasNode answers as a lookup in Nodes does,
// ground aliases included, without allocating — it runs on every
// configuration Prepare and twice per bridge insertion.
func TestHasNodeWithoutAllocation(t *testing.T) {
	c := divider()
	nodes := map[string]bool{}
	for _, n := range c.Nodes() {
		nodes[n] = true
	}
	for _, n := range []string{"in", "mid", "0", "gnd", "GND", "", "xyz", "Mid", "mid "} {
		if got, want := c.HasNode(n), nodes[n] || IsGround(n); got != want {
			t.Errorf("HasNode(%q) = %v, want %v", n, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = c.HasNode("mid")
		_ = c.HasNode("xyz")
		_ = c.HasNode("gnd")
	}); n != 0 {
		t.Fatalf("HasNode allocates %.1f times per call set, want 0", n)
	}
}

func TestLayoutIsACopy(t *testing.T) {
	c := divider()
	lay, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lay.NodeIndex["in"] = 99
	lay2 := c.Layout()
	if lay2.NodeIndex["in"] == 99 {
		t.Error("Layout exposes internal map")
	}
}

func TestRecompileAfterEdit(t *testing.T) {
	c := divider()
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	// Bridge a new node in: structural edit requires recompile.
	c.Add(device.NewResistor("Rb", "mid", "newnode", 1e4))
	c.Add(device.NewResistor("Rb2", "newnode", "0", 1e4))
	lay, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumNodes != 3 {
		t.Errorf("NumNodes = %d, want 3 after edit", lay.NumNodes)
	}
}

func TestStringContainsDevices(t *testing.T) {
	s := divider().String()
	for _, want := range []string{"V1", "R1", "R2", "divider"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}
