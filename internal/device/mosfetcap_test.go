package device

import (
	"math"
	"testing"

	"repro/internal/mna"
)

func capMOS() *MOSFET {
	mod := DefaultNMOSModel().WithGateCaps(3.45e-3, 0.3e-9, 0.3e-9)
	return NewMOSFET("M1", "d", "g", "s", mod, 10e-6, 1e-6)
}

func TestGateCapValues(t *testing.T) {
	m := capMOS()
	wantCgs := 0.3e-9*10e-6 + (2.0/3.0)*3.45e-3*10e-6*1e-6
	wantCgd := 0.3e-9 * 10e-6
	if math.Abs(m.Cgs()-wantCgs) > 1e-21 {
		t.Errorf("Cgs = %g, want %g", m.Cgs(), wantCgs)
	}
	if math.Abs(m.Cgd()-wantCgd) > 1e-21 {
		t.Errorf("Cgd = %g, want %g", m.Cgd(), wantCgd)
	}
}

func TestDefaultModelHasNoCaps(t *testing.T) {
	m := NewMOSFET("M1", "d", "g", "s", DefaultNMOSModel(), 10e-6, 1e-6)
	if m.hasCaps() {
		t.Error("default model should be purely static")
	}
	// Dynamic stamps must be no-ops.
	resolve(m, 0, 1, 2)
	s := mna.NewSystem(3)
	state := make([]float64, m.NumStates())
	stampCompanion(s, m, state, trCtx(1e-9, 1e-9, BackwardEuler))
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if entry(s, i, j) != 0 {
				t.Fatal("capless MOSFET stamped dynamics")
			}
		}
	}
}

func TestGateCapInitState(t *testing.T) {
	m := capMOS()
	resolve(m, 0, 1, 2)
	state := make([]float64, m.NumStates())
	m.InitState([]float64{3, 1.5, 0.5}, state)
	if state[0] != 1.0 { // vgs = 1.5 - 0.5
		t.Errorf("vgs state = %g, want 1", state[0])
	}
	if state[2] != -1.5 { // vgd = 1.5 - 3
		t.Errorf("vgd state = %g, want -1.5", state[2])
	}
	if state[1] != 0 || state[3] != 0 {
		t.Error("initial cap currents must be zero")
	}
}

func TestGateCapCommitConstantVoltage(t *testing.T) {
	m := capMOS()
	resolve(m, 0, 1, 2)
	state := make([]float64, m.NumStates())
	x := []float64{3, 1.5, 0.5}
	m.InitState(x, state)
	ctx := trCtx(1e-9, 1e-9, BackwardEuler)
	m.Commit(x, state, ctx)
	if math.Abs(state[1]) > 1e-18 || math.Abs(state[3]) > 1e-18 {
		t.Errorf("constant voltages should give zero cap currents, got %g/%g", state[1], state[3])
	}
}

func TestGateCapACAdmittance(t *testing.T) {
	m := capMOS()
	resolve(m, 0, 1, 2)
	s := mna.NewComplexSystem(3)
	omega := 2 * math.Pi * 1e6
	// Off transistor: gm = gds = 0, only the caps stamp.
	stampAC(m, s, []float64{0, 0, 0}, omega)
	wantGS := omega * m.Cgs()
	if got := imag(centry(s, 3, 1, 1)); math.Abs(got-(omega*m.Cgs()+omega*m.Cgd())) > 1e-12 {
		t.Errorf("gate self-admittance = %g, want %g", got, omega*(m.Cgs()+m.Cgd()))
	}
	if got := imag(centry(s, 3, 1, 2)); math.Abs(got+wantGS) > 1e-12 {
		t.Errorf("gate-source coupling = %g, want %g", got, -wantGS)
	}
}

func TestWithGateCapsFluent(t *testing.T) {
	m := DefaultPMOSModel().WithGateCaps(1e-3, 1e-10, 2e-10)
	if m.Cox != 1e-3 || m.CGSO != 1e-10 || m.CGDO != 2e-10 {
		t.Error("WithGateCaps did not set parameters")
	}
}

func TestGateCapCloneIndependence(t *testing.T) {
	m := capMOS()
	c := m.Clone().(*MOSFET)
	c.Model.Cox = 0
	if m.Model.Cox == 0 {
		t.Error("clone shares cap parameters with original")
	}
}
