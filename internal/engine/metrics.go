package engine

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs/hist"
	"repro/internal/sim"
)

// phase accumulates one named phase's counters and its latency
// distribution.
type phase struct {
	count atomic.Int64
	wall  atomic.Int64 // nanoseconds
	lat   *hist.Histogram
}

// Observe records one completed unit of the named phase and the wall
// time it took. Phases are created on first use. Beyond the running
// count/wall totals, every observation lands in the phase's log-linear
// latency histogram, so Metrics can report tail percentiles (the
// impact-ladder searches that dominate a run are invisible in means).
func (e *Engine) Observe(name string, d time.Duration) {
	p, ok := e.phases.Load(name)
	if !ok {
		p, _ = e.phases.LoadOrStore(name, &phase{lat: hist.New()})
	}
	ph := p.(*phase)
	ph.count.Add(1)
	ph.wall.Add(int64(d))
	ph.lat.RecordDuration(d)
}

// Time starts a timer for the named phase and returns the function that
// stops it and records the observation:
//
//	defer e.Time("box-build")()
func (e *Engine) Time(name string) func() {
	t0 := time.Now()
	return func() { e.Observe(name, time.Since(t0)) }
}

// PhaseStats is the snapshot of one phase.
type PhaseStats struct {
	// Name identifies the phase (e.g. "box-build", "impact-loop").
	Name string
	// Count is the number of completed units (per-config optimizations,
	// per-fault selection loops, ...).
	Count int64
	// Wall is the summed wall-clock time across all units. Units run in
	// parallel, so Wall can exceed the elapsed real time; it measures
	// where the compute budget went.
	Wall time.Duration
	// Latency is the per-unit wall-time distribution (nanoseconds):
	// count, sum, extremes and log-linear buckets, from which p50/p90/p99
	// are derived. Means hide the slow tail this exists to expose.
	Latency hist.Snapshot
}

// Avg returns the mean wall time per unit.
func (p PhaseStats) Avg() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Wall / time.Duration(p.Count)
}

// BreakerStats is a snapshot of the session-level low-rank circuit
// breaker (zero when no breaker is armed): how often the fallback-rate
// threshold tripped it, and whether it is currently holding the session
// on the slow path.
type BreakerStats struct {
	Trips uint64
	Open  bool
}

// Metrics is a point-in-time snapshot of an engine's observability
// counters: where simulation time went, how well the response cache is
// working, and what the simulation kernel did for it.
type Metrics struct {
	// Phases holds one entry per observed phase, sorted by descending
	// wall time.
	Phases []PhaseStats
	// Cache summarizes the sharded response cache.
	Cache CacheStats
	// Solver carries the simulation kernel's counters — "how many
	// stamps and factorizations did the budget buy", the kernel-level
	// refinement of the paper's simulation-count cost metric. The engine
	// does not produce them; core.Session.Metrics fills them from the
	// session's sim.Probe (zero otherwise).
	Solver sim.Counters
	// TaskPanics counts panics recovered at the task isolation boundary
	// (Engine.Recover), whether they were quarantined or failed the run.
	TaskPanics int64
	// Durations holds latency distributions from layers below the engine
	// (the simulation kernel's per-analysis wall times and Newton
	// iteration counts), filled like Solver. Nil otherwise.
	Durations []hist.NamedSnapshot
	// Breaker carries the low-rank circuit breaker's state, filled by
	// core.Session.Metrics (zero when no breaker is armed).
	Breaker BreakerStats
}

// Phase returns the stats of the named phase (zero value when the phase
// has not been observed).
func (m Metrics) Phase(name string) PhaseStats {
	for _, p := range m.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseStats{Name: name}
}

// Metrics snapshots the engine's phase and cache counters.
func (e *Engine) Metrics() Metrics {
	m := Metrics{Cache: e.cache.Stats(), TaskPanics: e.panics.Load()}
	e.phases.Range(func(k, v any) bool {
		ph := v.(*phase)
		m.Phases = append(m.Phases, PhaseStats{
			Name:    k.(string),
			Count:   ph.count.Load(),
			Wall:    time.Duration(ph.wall.Load()),
			Latency: ph.lat.Snapshot(),
		})
		return true
	})
	sort.Slice(m.Phases, func(i, j int) bool {
		if m.Phases[i].Wall != m.Phases[j].Wall {
			return m.Phases[i].Wall > m.Phases[j].Wall
		}
		return m.Phases[i].Name < m.Phases[j].Name
	})
	return m
}
