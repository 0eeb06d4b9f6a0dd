package sim

// Relaxation is one rung of the operating-point recovery ladder: a
// temporary loosening of the solver settings used to re-attempt a solve
// that exhausted plain Newton, gmin stepping, and source stepping. The
// ladder sits *above* those built-in continuation methods — each rung
// reruns the full OperatingPointInto strategy under relaxed settings.
type Relaxation struct {
	// TolScale multiplies AbsTol and RelTol (> 1 loosens the convergence
	// criterion; values <= 0 are treated as 1).
	TolScale float64
	// GminFloor, when positive, replaces Options.GminFloor for the rung.
	// A raised floor leaves a stronger convergence-aid conductance in the
	// nonlinear device stamps, trading accuracy for solvability.
	GminFloor float64
	// MaxIter, when positive, replaces Options.MaxIter for the rung.
	MaxIter int
}

// StandardRecovery is the default escalation ladder for hard faulty
// circuits: first more iterations at the stock tolerances, then loosened
// tolerances, then a raised gmin floor on top. The rungs are ordered from
// least to most accuracy lost, so the first rung that converges gives the
// best answer the circuit admits.
func StandardRecovery() []Relaxation {
	return []Relaxation{
		{TolScale: 1, MaxIter: 400},
		{TolScale: 100, MaxIter: 400},
		{TolScale: 100, GminFloor: 1e-9, MaxIter: 400},
		{TolScale: 1e4, GminFloor: 1e-6, MaxIter: 600},
	}
}

// apply returns opts with the rung's relaxations applied.
func (r Relaxation) apply(opts Options) Options {
	if r.TolScale > 0 {
		opts.AbsTol *= r.TolScale
		opts.RelTol *= r.TolScale
	}
	if r.GminFloor > 0 {
		opts.GminFloor = r.GminFloor
	}
	if r.MaxIter > 0 {
		opts.MaxIter = r.MaxIter
	}
	return opts
}
