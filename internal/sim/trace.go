package sim

import (
	"sync/atomic"
	"time"

	"repro/internal/obs/hist"
)

// TraceHook receives one notification per completed analysis: the
// analysis kind ("op", "dc-sweep", "ac", "noise", "transient",
// "transient-adaptive"), its wall time, and the delta of the engine's
// solver counters over the analysis — the kernel-level answer to "what
// did this analysis cost". The observability layer registers a hook that
// turns these into retrospective journal spans.
//
// Hooks must be safe for concurrent use: engines on different goroutines
// invoke the hook concurrently. Like the counter totals, the hook is
// package-wide because engines are constructed deep inside
// test-configuration closures (see the totals doc in stats.go).
type TraceHook func(analysis string, d time.Duration, delta Counters)

var traceHook atomic.Pointer[TraceHook]

// analysisHists holds the always-on per-analysis latency distributions:
// one wall-time histogram per analysis kind ("sim.op", "sim.dc-sweep",
// ...) plus "sim.newton_iters", a value histogram of Newton iterations
// per analysis. Package-wide for the same reason as totals: engines are
// constructed deep inside test-configuration closures, and consumers
// scope the cumulative contents to a session with hist.SubNamed against
// a baseline captured at session construction.
var analysisHists = hist.NewRegistry()

// newtonIterHist is the pre-resolved "sim.newton_iters" histogram so the
// per-analysis seam pays a direct Record instead of a registry probe.
var newtonIterHist = analysisHists.Get("sim.newton_iters")

// analysisWall pre-resolves the wall-time histogram of each analysis
// kind; the map is built once and only read afterwards, so concurrent
// lookups are safe. Unknown kinds (none today) fall back to the
// registry's locked probe.
var analysisWall = map[string]*hist.Histogram{
	"op":                 analysisHists.Get("sim.op"),
	"dc-sweep":           analysisHists.Get("sim.dc-sweep"),
	"ac":                 analysisHists.Get("sim.ac"),
	"noise":              analysisHists.Get("sim.noise"),
	"transient":          analysisHists.Get("sim.transient"),
	"transient-adaptive": analysisHists.Get("sim.transient-adaptive"),
}

// HistSnapshots returns the cumulative per-analysis latency and
// iteration distributions, sorted by name. Counts and buckets are
// process-lifetime; scope them to a session with hist.SubNamed.
func HistSnapshots() []hist.NamedSnapshot { return analysisHists.Snapshot() }

// SetTraceHook registers fn as the per-analysis observer; nil clears it.
// When no hook is registered the instrumented entry points pay one
// atomic pointer load, two clock reads and two histogram records per
// analysis (not per iteration) — the disabled-tracing cost contract.
func SetTraceHook(fn TraceHook) {
	if fn == nil {
		traceHook.Store(nil)
		return
	}
	traceHook.Store(&fn)
}

// traceStart begins timing an analysis: the wall-time histograms are
// always on, so it returns a real start time and counter snapshot even
// when no hook is registered (the hook pointer is nil in that case).
func (e *Engine) traceStart() (*TraceHook, time.Time, Counters) {
	return traceHook.Load(), time.Now(), e.stats
}

// traceEnd records the completed analysis into the per-analysis
// histograms and, when one is registered, reports it to the hook.
func (e *Engine) traceEnd(h *TraceHook, analysis string, t0 time.Time, pre Counters) {
	d := time.Since(t0)
	delta := e.stats.Sub(pre)
	if hg := analysisWall[analysis]; hg != nil {
		hg.RecordDuration(d)
	} else {
		analysisHists.Observe("sim."+analysis, int64(d))
	}
	newtonIterHist.Record(int64(delta.NewtonIterations))
	if h != nil {
		(*h)(analysis, d, delta)
	}
}
