// Package opt implements the derivative-free minimizers the paper's test
// generator uses: Brent's method for single-parameter test configurations
// and Powell's direction-set method (with Brent line searches) for
// multi-parameter ones, plus exhaustive grid search and Nelder–Mead for
// ablation studies.
//
// All minimizers operate inside a rectangular parameter box, mirroring
// the constraint values the paper attaches to every test parameter. They
// count objective evaluations, because simulation count is the paper's
// stated cost concern ("global optimization requires a much larger
// amount of simulations which we consider unacceptable").
package opt

import (
	"fmt"
	"math"
)

// Objective is a scalar function of a parameter vector.
type Objective func(x []float64) float64

// Scalar is a scalar function of one variable.
type Scalar func(x float64) float64

// Result is the outcome of a minimization.
type Result struct {
	X     []float64 // minimizer
	F     float64   // objective at X
	Evals int       // objective evaluations spent
}

// IterObserver receives one notification per optimizer iteration: the
// stage name ("brent" iterations, "powell" sweeps), the iteration
// index, and the current best point and value. It is the hook the
// observability layer uses to journal the trajectory of each S_f search
// — the per-fault tps-trajectory — without the optimizers knowing about
// tracing. The x slice is only valid during the call; observers that
// retain it must copy. A nil observer costs nothing.
type IterObserver func(stage string, iter int, x []float64, f float64)

const (
	defaultTol     = 1e-4
	defaultMaxIter = 100
	goldenRatio    = 0.3819660112501051 // (3 - sqrt(5)) / 2
)

// Brent minimizes f on [a, b] with Brent's combined golden-section /
// parabolic-interpolation method (Brent 1973, ch. 5), the algorithm the
// paper cites for single-parameter test configurations. tol ≤ 0 selects a
// sensible default relative tolerance.
func Brent(f Scalar, a, b, tol float64) Result {
	return BrentObserved(f, a, b, tol, nil)
}

// BrentObserved is Brent with a per-iteration observer (nil behaves
// exactly like Brent): watch sees the current best point after every
// iteration of the main loop.
func BrentObserved(f Scalar, a, b, tol float64, watch IterObserver) Result {
	if tol <= 0 {
		tol = defaultTol
	}
	if a > b {
		a, b = b, a
	}
	evals := 0
	eval := func(x float64) float64 {
		evals++
		return f(x)
	}

	x := a + goldenRatio*(b-a)
	w, v := x, x
	fx := eval(x)
	fw, fv := fx, fx
	var d, e float64
	var watchX []float64
	if watch != nil {
		watchX = make([]float64, 1)
	}

	for it := 0; it < defaultMaxIter; it++ {
		m := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + 1e-12
		tol2 := 2 * tol1
		if math.Abs(x-m) <= tol2-0.5*(b-a) {
			break
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Fit a parabola through (v,fv), (w,fw), (x,fx).
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, m-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x < m {
				e = b - x
			} else {
				e = a - x
			}
			d = goldenRatio * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := eval(u)
		if fu <= fx {
			if u < x {
				b = x
			} else {
				a = x
			}
			v, fv = w, fw
			w, fw = x, fx
			x, fx = u, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, fv = w, fw
				w, fw = u, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
		if watch != nil {
			watchX[0] = x
			watch("brent", it, watchX, fx)
		}
	}
	return Result{X: []float64{x}, F: fx, Evals: evals}
}

// Box is a rectangular feasible region.
type Box struct {
	Lo, Hi []float64
}

// NewBox returns a box; it panics when the bounds are malformed, which is
// a configuration programming error.
func NewBox(lo, hi []float64) Box {
	if len(lo) != len(hi) {
		panic("opt: box bounds length mismatch")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("opt: box dimension %d inverted: [%g, %g]", i, lo[i], hi[i]))
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// Dim returns the box dimension.
func (b Box) Dim() int { return len(b.Lo) }

// Clamp projects x into the box in place and returns it.
func (b Box) Clamp(x []float64) []float64 {
	for i := range x {
		if x[i] < b.Lo[i] {
			x[i] = b.Lo[i]
		}
		if x[i] > b.Hi[i] {
			x[i] = b.Hi[i]
		}
	}
	return x
}

// Contains reports whether x lies inside the box.
func (b Box) Contains(x []float64) bool {
	for i := range x {
		if x[i] < b.Lo[i] || x[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the box midpoint.
func (b Box) Center() []float64 {
	c := make([]float64, b.Dim())
	for i := range c {
		c[i] = 0.5 * (b.Lo[i] + b.Hi[i])
	}
	return c
}

// Powell minimizes f inside box starting from seed using Powell's
// direction-set method: cyclic line minimizations along a direction set
// that is updated with the overall displacement direction each sweep
// (Acton's formulation, as cited by the paper). Line minimizations use
// Brent on the feasible segment of each direction.
func Powell(f Objective, box Box, seed []float64, tol float64) Result {
	return PowellObserved(f, box, seed, tol, nil)
}

// PowellObserved is Powell with a per-sweep observer (nil behaves
// exactly like Powell): watch sees the current best point after every
// direction-set sweep.
func PowellObserved(f Objective, box Box, seed []float64, tol float64, watch IterObserver) Result {
	n := box.Dim()
	if len(seed) != n {
		panic("opt: seed dimension mismatch")
	}
	if tol <= 0 {
		tol = defaultTol
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	x := make([]float64, n)
	copy(x, seed)
	box.Clamp(x)
	fx := eval(x)

	// Initial direction set: unit coordinate vectors.
	dirs := make([][]float64, n)
	for i := range dirs {
		dirs[i] = make([]float64, n)
		dirs[i][i] = 1
	}

	for sweep := 0; sweep < 30; sweep++ {
		x0 := make([]float64, n)
		copy(x0, x)
		f0 := fx
		biggestDrop := 0.0
		biggestDir := 0

		for i, dir := range dirs {
			fPrev := fx
			var lineEvals int
			x, fx, lineEvals = lineMin(eval, box, x, dir, fx, tol)
			evals += 0 // lineMin already counts through eval
			_ = lineEvals
			if drop := fPrev - fx; drop > biggestDrop {
				biggestDrop = drop
				biggestDir = i
			}
		}

		if watch != nil {
			watch("powell", sweep, x, fx)
		}

		// Convergence: relative improvement over the whole sweep.
		if 2*(f0-fx) <= tol*(math.Abs(f0)+math.Abs(fx))+1e-15 {
			break
		}

		// Extrapolated point along the net displacement.
		xe := make([]float64, n)
		disp := make([]float64, n)
		for i := range x {
			disp[i] = x[i] - x0[i]
			xe[i] = x[i] + disp[i]
		}
		if box.Contains(xe) {
			fe := eval(xe)
			if fe < f0 {
				t := 2*(f0-2*fx+fe)*sq(f0-fx-biggestDrop) - biggestDrop*sq(f0-fe)
				if t < 0 {
					// Replace the direction of largest decrease with the
					// net displacement and minimize along it.
					dirs[biggestDir] = normalize(disp)
					x, fx, _ = lineMin(eval, box, x, dirs[biggestDir], fx, tol)
				}
			}
		}
	}
	return Result{X: x, F: fx, Evals: evals}
}

func sq(v float64) float64 { return v * v }

func normalize(v []float64) []float64 {
	s := 0.0
	for _, c := range v {
		s += c * c
	}
	s = math.Sqrt(s)
	if s == 0 {
		return v
	}
	out := make([]float64, len(v))
	for i, c := range v {
		out[i] = c / s
	}
	return out
}

// lineMin minimizes t ↦ f(x + t·dir) over the feasible t-interval and
// returns the new point and value. If the direction immediately leaves
// the box, the point is returned unchanged.
func lineMin(eval func([]float64) float64, box Box, x []float64, dir []float64, fx, tol float64) ([]float64, float64, int) {
	tLo, tHi := feasibleSegment(box, x, dir)
	if tHi-tLo < 1e-15 {
		return x, fx, 0
	}
	probe := make([]float64, len(x))
	g := func(t float64) float64 {
		for i := range probe {
			probe[i] = x[i] + t*dir[i]
		}
		box.Clamp(probe)
		return eval(probe)
	}
	res := Brent(g, tLo, tHi, tol)
	if res.F < fx {
		out := make([]float64, len(x))
		for i := range out {
			out[i] = x[i] + res.X[0]*dir[i]
		}
		box.Clamp(out)
		return out, res.F, res.Evals
	}
	return x, fx, res.Evals
}

// feasibleSegment returns the t-range for which x + t·dir stays inside
// the box (0 always included).
func feasibleSegment(box Box, x, dir []float64) (tLo, tHi float64) {
	tLo, tHi = math.Inf(-1), math.Inf(1)
	for i := range x {
		if dir[i] == 0 {
			continue
		}
		a := (box.Lo[i] - x[i]) / dir[i]
		b := (box.Hi[i] - x[i]) / dir[i]
		if a > b {
			a, b = b, a
		}
		if a > tLo {
			tLo = a
		}
		if b < tHi {
			tHi = b
		}
	}
	if math.IsInf(tLo, -1) {
		tLo = 0
	}
	if math.IsInf(tHi, 1) {
		tHi = 0
	}
	if tLo > 0 {
		tLo = 0
	}
	if tHi < 0 {
		tHi = 0
	}
	return tLo, tHi
}

// Grid minimizes f by exhaustive evaluation on a uniform nPerAxis^dim
// grid over the box, the brute-force baseline for ablations and the
// sampler behind tps-graphs.
func Grid(f Objective, box Box, nPerAxis int) Result {
	if nPerAxis < 2 {
		nPerAxis = 2
	}
	n := box.Dim()
	idx := make([]int, n)
	x := make([]float64, n)
	best := Result{F: math.Inf(1)}
	evals := 0
	for {
		for i := 0; i < n; i++ {
			x[i] = box.Lo[i] + (box.Hi[i]-box.Lo[i])*float64(idx[i])/float64(nPerAxis-1)
		}
		v := f(x)
		evals++
		if v < best.F {
			best.F = v
			best.X = append([]float64(nil), x...)
		}
		// Odometer increment.
		k := 0
		for k < n {
			idx[k]++
			if idx[k] < nPerAxis {
				break
			}
			idx[k] = 0
			k++
		}
		if k == n {
			break
		}
	}
	best.Evals = evals
	return best
}

// NelderMead minimizes f inside box with the downhill-simplex method,
// provided as an alternative derivative-free optimizer for the ablation
// comparing against Powell.
func NelderMead(f Objective, box Box, seed []float64, tol float64) Result {
	n := box.Dim()
	if tol <= 0 {
		tol = defaultTol
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(box.Clamp(append([]float64(nil), x...)))
	}

	// Initial simplex: seed plus per-axis offsets of 5 % of the range.
	pts := make([][]float64, n+1)
	fv := make([]float64, n+1)
	for i := range pts {
		p := append([]float64(nil), seed...)
		if i > 0 {
			p[i-1] += 0.05 * (box.Hi[i-1] - box.Lo[i-1])
		}
		box.Clamp(p)
		pts[i] = p
		fv[i] = eval(p)
	}

	for it := 0; it < 200; it++ {
		// Order.
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if fv[j] < fv[i] {
					fv[i], fv[j] = fv[j], fv[i]
					pts[i], pts[j] = pts[j], pts[i]
				}
			}
		}
		if math.Abs(fv[n]-fv[0]) <= tol*(math.Abs(fv[0])+math.Abs(fv[n]))+1e-12 {
			break
		}
		// Centroid of all but worst.
		cen := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cen[j] += pts[i][j] / float64(n)
			}
		}
		mix := func(a, b []float64, t float64) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = a[i] + t*(b[i]-a[i])
			}
			return box.Clamp(out)
		}
		refl := mix(cen, pts[n], -1)
		fr := eval(refl)
		switch {
		case fr < fv[0]:
			exp := mix(cen, pts[n], -2)
			fe := eval(exp)
			if fe < fr {
				pts[n], fv[n] = exp, fe
			} else {
				pts[n], fv[n] = refl, fr
			}
		case fr < fv[n-1]:
			pts[n], fv[n] = refl, fr
		default:
			con := mix(cen, pts[n], 0.5)
			fc := eval(con)
			if fc < fv[n] {
				pts[n], fv[n] = con, fc
			} else {
				// Shrink towards best.
				for i := 1; i <= n; i++ {
					pts[i] = mix(pts[0], pts[i], 0.5)
					fv[i] = eval(pts[i])
				}
			}
		}
	}
	best := 0
	for i := 1; i <= n; i++ {
		if fv[i] < fv[best] {
			best = i
		}
	}
	return Result{X: pts[best], F: fv[best], Evals: evals}
}

// Minimize dispatches per the paper's recipe: Brent for one-parameter
// boxes, Powell for multi-parameter boxes.
func Minimize(f Objective, box Box, seed []float64, tol float64) Result {
	return MinimizeObserved(f, box, seed, tol, nil)
}

// MinimizeObserved is Minimize with a per-iteration observer: Brent
// iterations for one-parameter boxes, Powell sweeps otherwise. A nil
// observer behaves exactly like Minimize.
func MinimizeObserved(f Objective, box Box, seed []float64, tol float64, watch IterObserver) Result {
	if box.Dim() == 1 {
		arg := make([]float64, 1)
		return BrentObserved(func(x float64) float64 {
			arg[0] = x
			return f(arg)
		}, box.Lo[0], box.Hi[0], tol, watch)
	}
	return PowellObserved(f, box, seed, tol, watch)
}
