package opt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBrentQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 1.3) * (x - 1.3) }
	res := Brent(f, -5, 5, 1e-8)
	if math.Abs(res.X[0]-1.3) > 1e-5 {
		t.Errorf("min at %g, want 1.3", res.X[0])
	}
	if res.Evals <= 0 || res.Evals > 100 {
		t.Errorf("evals = %d, want a modest count", res.Evals)
	}
}

func TestBrentNonSmooth(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 0.7) }
	res := Brent(f, 0, 2, 1e-8)
	if math.Abs(res.X[0]-0.7) > 1e-4 {
		t.Errorf("min at %g, want 0.7", res.X[0])
	}
}

func TestBrentBoundaryMinimum(t *testing.T) {
	// Monotone decreasing: minimum at the right edge.
	f := func(x float64) float64 { return -x }
	res := Brent(f, 0, 3, 1e-8)
	if math.Abs(res.X[0]-3) > 1e-3 {
		t.Errorf("min at %g, want boundary 3", res.X[0])
	}
}

func TestBrentSwappedBounds(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	res := Brent(f, 2, -2, 1e-8)
	if math.Abs(res.X[0]) > 1e-4 {
		t.Errorf("min at %g, want 0", res.X[0])
	}
}

// TestBrentFindsMinimumOfRandomParabolas is a property test over random
// well-posed scalar problems.
func TestBrentFindsMinimumOfRandomParabolas(t *testing.T) {
	f := func(cRaw float64) bool {
		c := math.Mod(math.Abs(cRaw), 8) - 4 // minimum inside [-5, 5]
		res := Brent(func(x float64) float64 { return 2*(x-c)*(x-c) + 1 }, -5, 5, 1e-8)
		return math.Abs(res.X[0]-c) < 1e-4 && math.Abs(res.F-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoxClampContains(t *testing.T) {
	b := NewBox([]float64{0, -1}, []float64{1, 1})
	x := b.Clamp([]float64{2, -3})
	if x[0] != 1 || x[1] != -1 {
		t.Errorf("clamped = %v", x)
	}
	if !b.Contains([]float64{0.5, 0}) || b.Contains([]float64{1.5, 0}) {
		t.Error("Contains wrong")
	}
	c := b.Center()
	if c[0] != 0.5 || c[1] != 0 {
		t.Errorf("center = %v", c)
	}
}

func TestNewBoxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted box accepted")
		}
	}()
	NewBox([]float64{1}, []float64{0})
}

func TestPowellQuadraticBowl(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-0.3)*(x[0]-0.3) + 2*(x[1]+0.4)*(x[1]+0.4)
	}
	box := NewBox([]float64{-2, -2}, []float64{2, 2})
	res := Powell(f, box, []float64{1.5, 1.5}, 1e-8)
	if math.Abs(res.X[0]-0.3) > 1e-4 || math.Abs(res.X[1]+0.4) > 1e-4 {
		t.Errorf("min at %v, want (0.3, -0.4)", res.X)
	}
}

func TestPowellCorrelatedValley(t *testing.T) {
	// Rotated narrow valley: needs the direction-set update.
	f := func(x []float64) float64 {
		u := x[0] + x[1]
		v := x[0] - x[1]
		return u*u + 100*(v-0.5)*(v-0.5)
	}
	box := NewBox([]float64{-3, -3}, []float64{3, 3})
	res := Powell(f, box, []float64{2, 2}, 1e-10)
	// Minimum at u=0, v=0.5 -> x = (0.25, -0.25).
	if math.Abs(res.X[0]-0.25) > 1e-3 || math.Abs(res.X[1]+0.25) > 1e-3 {
		t.Errorf("min at %v, want (0.25, -0.25)", res.X)
	}
}

func TestPowellRespectsBox(t *testing.T) {
	// Unconstrained minimum outside the box: result must be on the border.
	f := func(x []float64) float64 {
		return (x[0]-5)*(x[0]-5) + (x[1]-5)*(x[1]-5)
	}
	box := NewBox([]float64{0, 0}, []float64{1, 1})
	res := Powell(f, box, []float64{0.5, 0.5}, 1e-8)
	if !box.Contains(res.X) {
		t.Fatalf("minimizer %v escaped the box", res.X)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("min at %v, want (1,1) corner", res.X)
	}
}

func TestPowellSeedDimensionPanics(t *testing.T) {
	box := NewBox([]float64{0}, []float64{1})
	defer func() {
		if recover() == nil {
			t.Error("bad seed accepted")
		}
	}()
	Powell(func(x []float64) float64 { return x[0] }, box, []float64{0, 0}, 1e-6)
}

func TestGridFindsGlobalAmongLocals(t *testing.T) {
	// Two-well function: global at x≈-1, local at x≈+1.2.
	f := func(x []float64) float64 {
		return math.Min((x[0]+1)*(x[0]+1), 0.5+(x[0]-1.2)*(x[0]-1.2))
	}
	box := NewBox([]float64{-3}, []float64{3})
	res := Grid(f, box, 61)
	if math.Abs(res.X[0]+1) > 0.11 {
		t.Errorf("grid min at %g, want -1", res.X[0])
	}
	if res.Evals != 61 {
		t.Errorf("evals = %d, want 61", res.Evals)
	}
}

func TestGrid2DEvalCount(t *testing.T) {
	n := 0
	f := func(x []float64) float64 { n++; return x[0] + x[1] }
	box := NewBox([]float64{0, 0}, []float64{1, 1})
	res := Grid(f, box, 5)
	if n != 25 || res.Evals != 25 {
		t.Errorf("evals = %d/%d, want 25", n, res.Evals)
	}
	if res.X[0] != 0 || res.X[1] != 0 {
		t.Errorf("min at %v, want origin", res.X)
	}
}

func TestNelderMeadBowl(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-0.3)*(x[0]-0.3) + 2*(x[1]+0.4)*(x[1]+0.4)
	}
	box := NewBox([]float64{-2, -2}, []float64{2, 2})
	res := NelderMead(f, box, []float64{1.5, 1.5}, 1e-10)
	if math.Abs(res.X[0]-0.3) > 1e-2 || math.Abs(res.X[1]+0.4) > 1e-2 {
		t.Errorf("min at %v, want (0.3, -0.4)", res.X)
	}
}

func TestMinimizeDispatch(t *testing.T) {
	// 1-D goes through Brent.
	one := Minimize(func(x []float64) float64 { return (x[0] - 2) * (x[0] - 2) },
		NewBox([]float64{0}, []float64{4}), []float64{0.1}, 1e-8)
	if math.Abs(one.X[0]-2) > 1e-4 {
		t.Errorf("1-D minimize at %v, want 2", one.X)
	}
	// 2-D goes through Powell.
	two := Minimize(func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		NewBox([]float64{-1, -1}, []float64{1, 1}), []float64{0.9, -0.9}, 1e-8)
	if math.Abs(two.X[0]) > 1e-3 || math.Abs(two.X[1]) > 1e-3 {
		t.Errorf("2-D minimize at %v, want origin", two.X)
	}
}

func TestFeasibleSegment(t *testing.T) {
	box := NewBox([]float64{0, 0}, []float64{1, 1})
	lo, hi := feasibleSegment(box, []float64{0.5, 0.5}, []float64{1, 0})
	if math.Abs(lo+0.5) > 1e-12 || math.Abs(hi-0.5) > 1e-12 {
		t.Errorf("segment = [%g, %g], want [-0.5, 0.5]", lo, hi)
	}
	// Zero direction: degenerate segment containing 0.
	lo, hi = feasibleSegment(box, []float64{0.5, 0.5}, []float64{0, 0})
	if lo > 0 || hi < 0 {
		t.Errorf("zero-dir segment = [%g, %g], must contain 0", lo, hi)
	}
}
