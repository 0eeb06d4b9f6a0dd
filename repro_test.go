package repro

import (
	"sync"
	"testing"
)

// The facade tests use one shared fast system: building the session runs
// corner simulations, so constructing it per test would dominate runtime.
var (
	sysOnce sync.Once
	sysErr  error
	sysFast *System
)

func fastSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		sysFast, sysErr = NewIVConverterSystem(WithFastBoxes())
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysFast
}

func TestSystemShapeMatchesPaper(t *testing.T) {
	sys := fastSystem(t)
	if got := len(sys.Faults()); got != 55 {
		t.Errorf("fault dictionary = %d, want 55", got)
	}
	if got := len(sys.Configs()); got != 5 {
		t.Errorf("configs = %d, want 5", got)
	}
	bridges, pinholes := 0, 0
	for _, f := range sys.Faults() {
		switch f.(type) {
		case *Bridge:
			bridges++
			if f.InitialImpact() != BridgeImpact {
				t.Errorf("%s impact %g, want %g", f.ID(), f.InitialImpact(), BridgeImpact)
			}
		case *Pinhole:
			pinholes++
			if f.InitialImpact() != PinholeImpact {
				t.Errorf("%s impact %g, want %g", f.ID(), f.InitialImpact(), PinholeImpact)
			}
		}
	}
	if bridges != 45 || pinholes != 10 {
		t.Errorf("split = %d/%d, want 45/10", bridges, pinholes)
	}
}

func TestSystemSensitivityAndTPS(t *testing.T) {
	sys := fastSystem(t)
	f := sys.Faults()[0] // bridge:0-Iin
	sf, err := sys.Sensitivity(0, f, []float64{20e-6})
	if err != nil {
		t.Fatal(err)
	}
	if sf >= 1.001 {
		t.Errorf("S_f = %g out of range", sf)
	}
	g, err := sys.TPS(0, f, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.S[0]) != 5 {
		t.Errorf("tps width = %d", len(g.S[0]))
	}
}

func TestSystemEndToEndSmall(t *testing.T) {
	sys := fastSystem(t)
	faults := []Fault{sys.Faults()[8], sys.Faults()[45]} // a bridge and a pinhole
	sols, err := sys.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	d := sys.Tabulate(sols)
	if len(d.ConfigIDs()) != 5 {
		t.Errorf("distribution tracks %d configs", len(d.ConfigIDs()))
	}
	cts, err := sys.Compact(sols, DefaultCompactOptions())
	if err != nil {
		t.Fatal(err)
	}
	cov, err := sys.Coverage(TestsOfCompact(cts), faults)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Total != 2 {
		t.Errorf("coverage total = %d", cov.Total)
	}
}

func TestNewSystemRejectsBrokenMacro(t *testing.T) {
	c := NewIVConverter()
	c.Remove("Rf") // leaves the netlist intact enough to compile, so instead gut a node
	c.Remove("Iin")
	c.Remove("Desd1")
	c.Remove("Desd2")
	// M1 gate node now dangles behind a single connection.
	if _, err := NewSystem(c, IVConfigs(), WithFastBoxes()); err == nil {
		t.Error("gutted macro accepted")
	}
}

func TestIVConfigsIndependentInstances(t *testing.T) {
	a := IVConfigs()
	b := IVConfigs()
	a[0].Params[0].Seed = 99
	if b[0].Params[0].Seed == 99 {
		t.Error("IVConfigs returns shared parameter storage")
	}
}
