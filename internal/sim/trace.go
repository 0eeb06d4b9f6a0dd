package sim

import "time"

// TraceHook receives one notification per completed analysis: the
// analysis kind ("op", "dc-sweep", "ac", "transient"), its wall time,
// and the delta of the engine's solver counters over the analysis — the
// kernel-level answer to "what did this analysis cost". The
// observability layer passes a hook to NewProbe that turns these into
// retrospective journal spans.
//
// Hooks must be safe for concurrent use: engines on different goroutines
// sharing one probe invoke the hook concurrently.
type TraceHook func(analysis string, d time.Duration, delta Counters)

// traceStart begins observing an analysis. Without a probe it reads no
// clock: an unobserved analysis pays one nil check here and one in
// traceEnd.
func (e *Engine) traceStart() (time.Time, Counters) {
	if e.opts.Probe == nil {
		return time.Time{}, Counters{}
	}
	return time.Now(), e.stats
}

// traceEnd flushes the engine's counters into its probe and reports the
// completed analysis. Every analysis defers it, so the probe's counters
// are exact at every analysis boundary, whichever way the analysis
// returned.
func (e *Engine) traceEnd(analysis string, t0 time.Time, pre Counters) {
	if p := e.opts.Probe; p != nil {
		e.flushStats()
		p.record(analysis, time.Since(t0), e.stats.Sub(pre))
	}
}
