package sim

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs/hist"
)

// Counters tallies the work the simulation kernel performs. Engines
// accumulate them locally (an Engine is single-goroutine by contract)
// and flush deltas into their Probe at solve boundaries, so the hot
// loop pays no synchronization.
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
	// (credited with Probe.Add).
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

// Probe observes the analyses of every engine whose Options carry it:
// it sums their solver counters, records each analysis kind's wall time
// and Newton iteration count into histograms, and reports every
// analysis to an optional TraceHook. Whoever builds the engines owns the
// probe — a core.Session holds one for all its simulations — so its
// numbers cover exactly that owner's work. A Probe is safe for
// concurrent use; a nil *Probe observes nothing.
type Probe struct {
	hook TraceHook

	mu       sync.Mutex
	counters Counters

	// wall holds one wall-time histogram per analysis kind; the map is
	// built by NewProbe and only read afterwards. iters is the Newton
	// iteration count per analysis.
	wall  map[string]*hist.Histogram
	iters *hist.Histogram
}

// NewProbe returns an empty probe that also reports each analysis to
// hook (nil: no hook).
func NewProbe(hook TraceHook) *Probe {
	p := &Probe{hook: hook, wall: make(map[string]*hist.Histogram), iters: hist.New()}
	for _, kind := range []string{"op", "dc-sweep", "ac", "noise", "transient", "transient-adaptive"} {
		p.wall[kind] = hist.New()
	}
	return p
}

// Add credits d to the probe's counters. Engines add their counter
// deltas at solve boundaries; layers above the kernel add work they
// avoided on its behalf (the retained fault evaluators in internal/core
// credit FaultyFactorAvoided).
func (p *Probe) Add(d Counters) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.counters.Add(d)
	p.mu.Unlock()
}

// Counters returns the solver counters summed so far.
func (p *Probe) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}

// Histograms snapshots the non-empty histograms, sorted by name:
// "sim.<kind>" holds the wall times (nanoseconds) of one analysis kind
// ("sim.op", "sim.dc-sweep", "sim.ac", "sim.noise", "sim.transient",
// "sim.transient-adaptive"), and "sim.newton_iters" the Newton
// iterations of every analysis. Each analysis records exactly one entry
// into its kind's histogram and one into "sim.newton_iters".
func (p *Probe) Histograms() []hist.NamedSnapshot {
	if p == nil {
		return nil
	}
	var out []hist.NamedSnapshot
	add := func(name string, h *hist.Histogram) {
		if s := h.Snapshot(); s.Count > 0 {
			out = append(out, hist.NamedSnapshot{Name: name, Snapshot: s})
		}
	}
	for kind, h := range p.wall {
		add("sim."+kind, h)
	}
	add("sim.newton_iters", p.iters)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// record observes one completed analysis.
func (p *Probe) record(kind string, d time.Duration, delta Counters) {
	p.wall[kind].RecordDuration(d)
	p.iters.Record(int64(delta.NewtonIterations))
	if p.hook != nil {
		p.hook(kind, d, delta)
	}
}

// flushStats adds the engine's counter delta since the previous flush
// to its probe. Called at solve boundaries, not per iteration.
func (e *Engine) flushStats() {
	p := e.opts.Probe
	if p == nil {
		return
	}
	d := e.stats.Sub(e.flushed)
	if d == (Counters{}) {
		return
	}
	e.flushed = e.stats
	p.Add(d)
}
