package repro

import (
	"repro/internal/core"
	"repro/internal/tolerance"
)

// Option configures a System constructor. Options are applied over the
// experiment-grade defaults (grid box functions, the paper's impact-loop
// constants) in call order.
type Option interface {
	applyOption(*core.Config)
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*core.Config)

func (f optionFunc) applyOption(c *core.Config) { f(c) }

// resolveConfig folds options over the defaults.
func resolveConfig(opts []Option) core.Config {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o.applyOption(&cfg)
	}
	return cfg
}

// Corner is one deterministic process corner used for tolerance-box
// calibration.
type Corner = tolerance.Corner

// DefaultCorners returns the process corners the experiments use.
func DefaultCorners() []Corner { return tolerance.DefaultCorners() }

// WithWorkers bounds the evaluation parallelism (default:
// runtime.GOMAXPROCS(0)).
func WithWorkers(n int) Option {
	return optionFunc(func(c *core.Config) { c.Workers = n })
}

// WithBoxMode selects the tolerance-box construction: BoxGrid (full
// grid interpolation, experiment grade), BoxSeed (seed-calibrated,
// fast), or BoxMonteCarlo.
func WithBoxMode(m BoxMode) Option {
	return optionFunc(func(c *core.Config) { c.BoxMode = m })
}

// WithCorners sets the process corners for box construction.
func WithCorners(corners ...Corner) Option {
	return optionFunc(func(c *core.Config) { c.Corners = corners })
}

// WithBoxGridN sets the per-axis sample count of BoxGrid boxes.
func WithBoxGridN(n int) Option {
	return optionFunc(func(c *core.Config) { c.BoxGridN = n })
}

// WithOptTol sets the Brent/Powell optimizer tolerance.
func WithOptTol(tol float64) Option {
	return optionFunc(func(c *core.Config) { c.OptTol = tol })
}

// WithSoftImpactFactor sets the impact-weakening factor applied before
// per-configuration optimization (paper §3.2).
func WithSoftImpactFactor(f float64) Option {
	return optionFunc(func(c *core.Config) { c.SoftImpactFactor = f })
}

// WithImpactRange bounds the impact relax/intensify loop: min is the
// strongest model resistance before a fault is declared undetectable,
// max caps the weakening.
func WithImpactRange(min, max float64) Option {
	return optionFunc(func(c *core.Config) { c.MinImpact, c.MaxImpact = min, max })
}

// WithMonteCarloBox selects Monte-Carlo box calibration with the given
// sample count and RNG seed.
func WithMonteCarloBox(samples int, seed int64) Option {
	return optionFunc(func(c *core.Config) {
		c.BoxMode = core.BoxMonteCarlo
		c.MCSamples = samples
		c.MCSeed = seed
	})
}

// WithCacheEntries bounds the nominal-response cache (total entries
// across shards; default 65536).
func WithCacheEntries(n int) Option {
	return optionFunc(func(c *core.Config) { c.CacheEntries = n })
}

// WithFastBoxes is shorthand for WithBoxMode(BoxSeed): seed-calibrated
// tolerance boxes, the cheap setup used by tests and interactive runs.
func WithFastBoxes() Option { return WithBoxMode(BoxSeed) }

// WithLowRankDisabled turns off the retained fault evaluators, forcing
// every faulty evaluation through the throwaway insert→compile→factor
// route. It exists for A/B benchmarking and for isolating the solver
// when debugging. Results are not always bit-identical with and without
// it: the retained evaluators' warm-started impact ladder can end a
// fault at another critical impact (DESIGN.md §12, "The margin does not
// hold everywhere").
func WithLowRankDisabled() Option {
	return optionFunc(func(c *core.Config) { c.DisableFastPath = true })
}

// WithCrossCheck replays every fast-path sensitivity through the
// throwaway path, and every analysis the memo serves on a freshly built
// circuit, and fails the run on any bit difference. Debug mode: it
// doubles (or worse) the simulation cost.
func WithCrossCheck() Option {
	return optionFunc(func(c *core.Config) { c.CrossCheck = true })
}
