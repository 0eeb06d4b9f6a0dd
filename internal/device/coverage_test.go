package device

import (
	"math"
	"testing"

	"repro/internal/mna"
	"repro/internal/wave"
)

// Direct unit coverage for the stamps and plumbing that the sim-level
// tests only exercise transitively.

func TestTypeStrings(t *testing.T) {
	if NMOS.String() != "nmos" || PMOS.String() != "pmos" {
		t.Error("MOSType strings wrong")
	}
	if NPN.String() != "npn" || PNP.String() != "pnp" {
		t.Error("BJTType strings wrong")
	}
}

// stampAC adds both halves of d's small-signal stamp at omega, as an AC
// sweep point does.
func stampAC(d ACSplitStamper, s *mna.ComplexSystem, xop []float64, omega float64) {
	d.StampACBase(s, xop)
	d.StampACReactive(s, xop, omega)
}

func TestResistorACStamp(t *testing.T) {
	r := NewResistor("R1", "a", "b", 2e3)
	resolve(r, 0, 1)
	s := mna.NewComplexSystem(2)
	stampAC(r, s, nil, 1e3)
	if got := real(centry(s, 2, 0, 0)); math.Abs(got-5e-4) > 1e-12 {
		t.Errorf("AC conductance = %g, want 5e-4", got)
	}
}

func TestCapacitorACStamp(t *testing.T) {
	c := NewCapacitor("C1", "a", "b", 1e-9)
	resolve(c, 0, 1)
	s := mna.NewComplexSystem(2)
	omega := 2 * math.Pi * 1e6
	stampAC(c, s, nil, omega)
	if got := imag(centry(s, 2, 0, 0)); math.Abs(got-omega*1e-9) > 1e-12 {
		t.Errorf("AC susceptance = %g, want %g", got, omega*1e-9)
	}
}

func TestInductorACStamp(t *testing.T) {
	l := NewInductor("L1", "a", "b", 1e-3)
	resolve(l, 0, 1)
	l.SetBranchBase(2)
	s := mna.NewComplexSystem(3)
	omega := 2 * math.Pi * 1e3
	stampAC(l, s, nil, omega)
	if got := imag(centry(s, 3, 2, 2)); math.Abs(got+omega*1e-3) > 1e-12 {
		t.Errorf("branch reactance = %g, want %g", got, -omega*1e-3)
	}
}

func TestInductorTransientCompanion(t *testing.T) {
	// RL charge: i(t) = V/R (1 - exp(-t R/L)); run the companion by hand.
	l := NewInductor("L1", "n", "", 1e-3)
	r := NewResistor("R1", "in", "n", 1e3)
	vs := NewDCVSource("V1", "in", "", 1)
	resolve(l, 1, -1)
	resolve(r, 0, 1)
	resolve(vs, 0, -1)
	l.SetBranchBase(2)
	vs.SetBranchBase(3)
	state := make([]float64, l.NumStates())
	// Start de-energized.
	state[0], state[1] = 0, 0
	sys := mna.NewSystem(4)
	dt := 1e-7 // tau = 1 µs
	var x []float64
	for step := 0; step < 10; step++ {
		ctx := trCtx(float64(step+1)*dt, dt, Trapezoidal)
		reset(sys)
		stampLinear(sys, r, ctx)
		stampLinear(sys, vs, ctx)
		stampCompanion(sys, l, state, ctx)
		var err error
		x, err = solve(sys)
		if err != nil {
			t.Fatal(err)
		}
		l.Commit(x, state, ctx)
	}
	want := 1e-3 * (1 - math.Exp(-1)) // after 1 tau
	if math.Abs(state[0]-want) > 2e-5*1e3 {
		t.Errorf("i(tau) = %g, want %g", state[0], want)
	}
}

func TestDiodeACStamp(t *testing.T) {
	d := NewDiode("D1", "a", "", nil)
	resolve(d, 0, -1)
	s := mna.NewComplexSystem(1)
	xop := []float64{0.6}
	stampAC(d, s, xop, 1e3)
	_, gd := d.current(0.6)
	if got := real(centry(s, 1, 0, 0)); math.Abs(got-gd) > 1e-12*gd {
		t.Errorf("AC conductance = %g, want %g", got, gd)
	}
}

func TestBJTACStampGm(t *testing.T) {
	q := NewBJT("Q1", "c", "b", "e", DefaultNPNModel())
	resolve(q, 0, 1, 2)
	s := mna.NewComplexSystem(3)
	xop := []float64{5, 0.65, 0}
	stampAC(q, s, xop, 1e3)
	gm := q.CollectorCurrent(xop) / q.Model.VT
	if got := real(centry(s, 3, 0, 1)); math.Abs(got-gm) > 0.02*gm {
		t.Errorf("AC gm entry = %g, want ≈ %g", got, gm)
	}
}

func TestClonesEverywhere(t *testing.T) {
	devs := []Device{
		NewResistor("R", "a", "b", 1e3),
		NewCapacitor("C", "a", "b", 1e-12),
		NewInductor("L", "a", "b", 1e-6),
		NewDiode("D", "a", "b", nil),
		NewVSource("V", "a", "b", wave.DC(1)),
		NewISource("I", "a", "b", wave.DC(1)),
		NewVCVS("E", "a", "b", "c", "d", 2),
		NewVCCS("G", "a", "b", "c", "d", 1e-3),
		NewMOSFET("M", "a", "b", "c", DefaultNMOSModel(), 1e-6, 1e-6),
		NewBJT("Q", "a", "b", "c", DefaultNPNModel()),
	}
	for _, d := range devs {
		c := d.Clone()
		if c.Name() != d.Name() {
			t.Errorf("%T clone lost its name", d)
		}
		if len(c.TerminalNames()) != len(d.TerminalNames()) {
			t.Errorf("%T clone lost terminals", d)
		}
		if c.Terminals() != nil {
			t.Errorf("%T clone retained resolved indices", d)
		}
	}
}

func TestScaleValues(t *testing.T) {
	c := NewCapacitor("C", "a", "b", 1e-12)
	c.ScaleValue(1.1)
	if math.Abs(c.C-1.1e-12) > 1e-24 {
		t.Errorf("C = %g", c.C)
	}
	l := NewInductor("L", "a", "b", 1e-6)
	l.ScaleValue(0.9)
	if math.Abs(l.L-0.9e-6) > 1e-18 {
		t.Errorf("L = %g", l.L)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewCapacitor("C", "a", "b", 0) },
		func() { NewInductor("L", "a", "b", -1) },
		func() { NewMOSFET("M", "a", "b", "c", DefaultNMOSModel(), 0, 1e-6) },
		func() { NewMOSFET("M", "a", "b", "c", nil, 1e-6, 1e-6) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMOSFETGmAccessor(t *testing.T) {
	m := NewMOSFET("M1", "d", "g", "s", DefaultNMOSModel(), 10e-6, 1e-6)
	resolve(m, 0, 1, 2)
	x := []float64{3, 1.5, 0}
	gm := m.Gm(x)
	want := m.Beta() * 0.8 * (1 + m.Model.Lambda*3)
	if math.Abs(gm-want) > 1e-9 {
		t.Errorf("Gm = %g, want %g", gm, want)
	}
}

func TestMOSCapTrapezoidalCompanion(t *testing.T) {
	m := capMOS()
	resolve(m, 0, 1, 2)
	state := make([]float64, m.NumStates())
	m.InitState([]float64{2, 1, 0}, state)
	s := mna.NewSystem(3)
	ctx := trCtx(1e-9, 1e-9, Trapezoidal)
	stampCompanion(s, m, state, ctx)
	// Gate row picks up both capacitor companions.
	wantG := 2*m.Cgs()/1e-9 + 2*m.Cgd()/1e-9
	if got := entry(s, 1, 1); math.Abs(got-wantG) > 1e-9*wantG {
		t.Errorf("gate self-conductance = %g, want %g", got, wantG)
	}
	// Commit with unchanged voltages: currents stay zero.
	m.Commit([]float64{2, 1, 0}, state, ctx)
	if math.Abs(state[1]) > 1e-18 || math.Abs(state[3]) > 1e-18 {
		t.Error("static commit produced current")
	}
}

func TestVCVSAC(t *testing.T) {
	e := NewVCVS("E1", "p", "m", "cp", "cm", 10)
	resolve(e, 0, 1, 2, 3)
	e.SetBranchBase(4)
	s := mna.NewComplexSystem(5)
	stampAC(e, s, nil, 1e3)
	if got := real(centry(s, 5, 4, 2)); got != -10 {
		t.Errorf("VCVS AC gain entry = %g, want -10", got)
	}
}

func TestVCCSAC(t *testing.T) {
	g := NewVCCS("G1", "p", "m", "cp", "cm", 1e-3)
	resolve(g, 0, 1, 2, 3)
	s := mna.NewComplexSystem(4)
	stampAC(g, s, nil, 1e3)
	if got := real(centry(s, 4, 0, 2)); math.Abs(got-1e-3) > 1e-15 {
		t.Errorf("VCCS AC gm entry = %g, want 1e-3", got)
	}
}
