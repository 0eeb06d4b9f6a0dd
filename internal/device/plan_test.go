package device

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mna"
)

// prefilled returns an n-dimensional system whose every matrix and
// right-hand-side entry holds a nonzero value drawn from rng.
func prefilled(rng *rand.Rand, n int) *mna.System {
	s := mna.NewSystem(n)
	a, b := s.Buffers()
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return s
}

// samePlanStamp stamps st at x into two identically prefilled systems,
// once through Stamp and once through its plan, and reports whether the
// matrices and right-hand sides agree bit for bit.
func samePlanStamp(t *testing.T, rng *rand.Rand, st Stamper, n int, x []float64) bool {
	t.Helper()
	const gmin = 1e-12
	p, ok := NewStampPlan(st, n)
	if !ok || !p.Valid() {
		t.Fatalf("%T has no plan", st)
	}
	seed := rng.Int63()
	viaStamp := prefilled(rand.New(rand.NewSource(seed)), n)
	viaPlan := prefilled(rand.New(rand.NewSource(seed)), n)
	st.Stamp(viaStamp, x, &Context{Mode: OP, SrcScale: 1, Gmin: gmin})
	a, b := viaPlan.Buffers()
	p.Stamp(a, b, x, gmin)
	wa, wb := viaStamp.Buffers()
	for i := range wa {
		if math.Float64bits(a[i]) != math.Float64bits(wa[i]) {
			return false
		}
	}
	for i := range wb {
		if math.Float64bits(b[i]) != math.Float64bits(wb[i]) {
			return false
		}
	}
	return true
}

// TestMOSFETPlanMatchesStamp: a MOSFET's plan adds the same values to
// the same entries in the same order as its Stamp, for both flavours,
// with the source and drain swapped or not, in every region, with a
// grounded terminal and diode-connected (gate = drain).
func TestMOSFETPlanMatchesStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Resolved (drain, gate, source) indices into a 3-unknown system.
	wirings := map[string][3]int{
		"distinct":        {0, 1, 2},
		"grounded source": {0, 1, -1},
		"grounded drain":  {-1, 1, 2},
		"grounded gate":   {0, -1, 2},
		"diode-connected": {0, 0, 2},
	}
	models := []*MOSModel{DefaultNMOSModel(), DefaultPMOSModel()}
	covered := map[[3]string]bool{}
	for name, w := range wirings {
		for _, mod := range models {
			m := NewMOSFET("M1", "d", "g", "s", mod, 20e-6, 2e-6)
			resolve(m, w[:]...)
			for trial := 0; trial < 400; trial++ {
				x := []float64{6*rng.Float64() - 3, 6*rng.Float64() - 3, 6*rng.Float64() - 3}
				if !samePlanStamp(t, rng, m, 3, x) {
					t.Fatalf("%s %s at x=%v: plan and Stamp differ", name, mod.Type, x)
				}
				_, _, _, _, _, swapped := m.operating(x)
				orient := "as labelled"
				if swapped {
					orient = "swapped"
				}
				covered[[3]string{mod.Type.String(), orient, m.Region(x)}] = true
			}
		}
	}
	for _, typ := range []string{"nmos", "pmos"} {
		for _, orient := range []string{"as labelled", "swapped"} {
			for _, region := range []string{"off", "triode", "sat"} {
				if !covered[[3]string{typ, orient, region}] {
					t.Errorf("no %s case %s in region %s", typ, orient, region)
				}
			}
		}
	}
}

// TestDiodePlanMatchesStamp: a diode's plan matches its Stamp bit for
// bit on both sides of the 40·n·V_T continuation point, with either
// terminal grounded or neither.
func TestDiodePlanMatchesStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDiode("D1", "a", "k", nil)
	vmax := 40 * d.Model.N * d.Model.VT
	above := 0
	for _, w := range [][2]int{{0, 1}, {0, -1}, {-1, 1}} {
		resolve(d, w[:]...)
		for trial := 0; trial < 400; trial++ {
			x := []float64{3*rng.Float64() - 1, 3*rng.Float64() - 1}
			if !samePlanStamp(t, rng, d, 2, x) {
				t.Fatalf("wiring %v at x=%v: plan and Stamp differ", w, x)
			}
			if volt(x, w[0])-volt(x, w[1]) > vmax {
				above++
			}
		}
	}
	if above == 0 {
		t.Error("no case above the continuation point")
	}
}

// TestStampPlanOnlyForMOSFETsAndDiodes: the only other Stamper, the BJT,
// keeps stamping itself.
func TestStampPlanOnlyForMOSFETsAndDiodes(t *testing.T) {
	q := NewBJT("Q1", "c", "b", "e", DefaultNPNModel())
	resolve(q, 0, 1, 2)
	if p, ok := NewStampPlan(q, 3); ok || p.Valid() {
		t.Errorf("%T got a stamp plan", q)
	}
}
