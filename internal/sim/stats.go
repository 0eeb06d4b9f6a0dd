package sim

import "sync/atomic"

// Counters tallies the work the simulation kernel performs. Engines
// accumulate them locally (an Engine is single-goroutine by contract)
// and flush deltas into the package-wide atomic totals at solve
// boundaries, so the hot loop pays no synchronization.
type Counters struct {
	// Stamps counts device stamp calls (linear assemblies plus
	// per-iteration nonlinear re-stamps).
	Stamps uint64
	// Factorizations counts LU factorizations, real and complex.
	Factorizations uint64
	// FactorReuses counts solves served by the same-pattern fast path,
	// which reuses the previous factorization when the stamped matrix is
	// bit-identical.
	FactorReuses uint64
	// NewtonIterations counts Newton iterations across all solves.
	NewtonIterations uint64
	// Solves counts completed Newton solves (converged or not).
	Solves uint64
	// BaseBuilds counts linear-snapshot assemblies (cache misses).
	BaseBuilds uint64
	// BaseHits counts solves served from a cached linear snapshot.
	BaseHits uint64
	// RecoveryAttempts counts relaxation-ladder rungs tried after the
	// full operating-point strategy failed.
	RecoveryAttempts uint64
	// Recoveries counts operating points rescued by a ladder rung.
	Recoveries uint64
	// WoodburySolves counts solves served by the Sherman–Morrison–
	// Woodbury fast path against a retained factorization (lowrank.go).
	WoodburySolves uint64
	// WoodburyFallbacks counts eligible solves where the update guard
	// tripped (or the update went non-finite) and the engine fell back to
	// a full restamp+factor.
	WoodburyFallbacks uint64
	// FaultyFactorAvoided counts faulty-circuit factor-from-scratch
	// cycles the low-rank machinery avoided: Woodbury solves served
	// without refactoring the retained base, plus retained-evaluator
	// evaluations upstream that skipped a full insert+compile+factor
	// (see AddFaultyFactorAvoided).
	FaultyFactorAvoided uint64
}

// Add accumulates d into c.
func (c *Counters) Add(d Counters) {
	c.Stamps += d.Stamps
	c.Factorizations += d.Factorizations
	c.FactorReuses += d.FactorReuses
	c.NewtonIterations += d.NewtonIterations
	c.Solves += d.Solves
	c.BaseBuilds += d.BaseBuilds
	c.BaseHits += d.BaseHits
	c.RecoveryAttempts += d.RecoveryAttempts
	c.Recoveries += d.Recoveries
	c.WoodburySolves += d.WoodburySolves
	c.WoodburyFallbacks += d.WoodburyFallbacks
	c.FaultyFactorAvoided += d.FaultyFactorAvoided
}

// Sub returns c − d (no underflow checking; d is always a prefix of c).
func (c Counters) Sub(d Counters) Counters {
	return Counters{
		Stamps:           c.Stamps - d.Stamps,
		Factorizations:   c.Factorizations - d.Factorizations,
		FactorReuses:     c.FactorReuses - d.FactorReuses,
		NewtonIterations: c.NewtonIterations - d.NewtonIterations,
		Solves:           c.Solves - d.Solves,
		BaseBuilds:       c.BaseBuilds - d.BaseBuilds,
		BaseHits:         c.BaseHits - d.BaseHits,
		RecoveryAttempts: c.RecoveryAttempts - d.RecoveryAttempts,
		Recoveries:       c.Recoveries - d.Recoveries,

		WoodburySolves:      c.WoodburySolves - d.WoodburySolves,
		WoodburyFallbacks:   c.WoodburyFallbacks - d.WoodburyFallbacks,
		FaultyFactorAvoided: c.FaultyFactorAvoided - d.FaultyFactorAvoided,
	}
}

// totals is the process-wide tally. Engines are created deep inside
// test-configuration closures, so a package-level accumulator is the
// only place the evaluation engine's metrics can observe solver work
// without threading a sink through every constructor.
var totals struct {
	stamps           atomic.Uint64
	factorizations   atomic.Uint64
	factorReuses     atomic.Uint64
	newtonIterations atomic.Uint64
	solves           atomic.Uint64
	baseBuilds       atomic.Uint64
	baseHits         atomic.Uint64
	recoveryAttempts atomic.Uint64
	recoveries       atomic.Uint64

	woodburySolves      atomic.Uint64
	woodburyFallbacks   atomic.Uint64
	faultyFactorAvoided atomic.Uint64
}

// Totals returns the process-wide solver counters, summed over every
// engine since the last ResetTotals.
func Totals() Counters {
	return Counters{
		Stamps:           totals.stamps.Load(),
		Factorizations:   totals.factorizations.Load(),
		FactorReuses:     totals.factorReuses.Load(),
		NewtonIterations: totals.newtonIterations.Load(),
		Solves:           totals.solves.Load(),
		BaseBuilds:       totals.baseBuilds.Load(),
		BaseHits:         totals.baseHits.Load(),
		RecoveryAttempts: totals.recoveryAttempts.Load(),
		Recoveries:       totals.recoveries.Load(),

		WoodburySolves:      totals.woodburySolves.Load(),
		WoodburyFallbacks:   totals.woodburyFallbacks.Load(),
		FaultyFactorAvoided: totals.faultyFactorAvoided.Load(),
	}
}

// AddFaultyFactorAvoided credits n avoided faulty factor-from-scratch
// cycles to the process-wide totals. It is the hook for layers above the
// kernel (the retained fault evaluators in internal/core) that avoid a
// full insert+compile+factor without going through an Engine counter.
func AddFaultyFactorAvoided(n uint64) {
	totals.faultyFactorAvoided.Add(n)
}

// ResetTotals zeroes the process-wide counters (benchmarks, tests).
func ResetTotals() {
	totals.stamps.Store(0)
	totals.factorizations.Store(0)
	totals.factorReuses.Store(0)
	totals.newtonIterations.Store(0)
	totals.solves.Store(0)
	totals.baseBuilds.Store(0)
	totals.baseHits.Store(0)
	totals.recoveryAttempts.Store(0)
	totals.recoveries.Store(0)
	totals.woodburySolves.Store(0)
	totals.woodburyFallbacks.Store(0)
	totals.faultyFactorAvoided.Store(0)
}

// flushStats pushes the engine's counter delta since the previous flush
// into the package totals. Called at solve boundaries, not per
// iteration.
func (e *Engine) flushStats() {
	d := e.stats.Sub(e.flushed)
	if d == (Counters{}) {
		return
	}
	e.flushed = e.stats
	totals.stamps.Add(d.Stamps)
	totals.factorizations.Add(d.Factorizations)
	totals.factorReuses.Add(d.FactorReuses)
	totals.newtonIterations.Add(d.NewtonIterations)
	totals.solves.Add(d.Solves)
	totals.baseBuilds.Add(d.BaseBuilds)
	totals.baseHits.Add(d.BaseHits)
	totals.recoveryAttempts.Add(d.RecoveryAttempts)
	totals.recoveries.Add(d.Recoveries)
	totals.woodburySolves.Add(d.WoodburySolves)
	totals.woodburyFallbacks.Add(d.WoodburyFallbacks)
	totals.faultyFactorAvoided.Add(d.FaultyFactorAvoided)
}
