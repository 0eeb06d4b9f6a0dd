package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Default breaker tuning (Config fields override).
const (
	defaultBreakerWindow   = time.Second
	defaultBreakerCooldown = 5 * time.Second
)

// breaker is the session's low-rank circuit breaker. The Woodbury fast
// path falls back to a full restamp+factor whenever its stability guard
// trips; on a pathological macro (or under injected guard trips) every
// eligible solve can take the fallback, paying the fast path's setup
// cost on top of the slow path's solve cost. The breaker watches the
// session-scoped woodbury_fallbacks rate and, past the threshold, pins
// the session to the slow path for a cool-down: newFaultEval returns
// nil while the breaker is open, so evaluations route through the
// throwaway path. Results are bit-identical on both paths (the PR-6
// identity property), which is what makes tripping safe mid-run.
type breaker struct {
	s         *Session
	threshold uint64        // fallbacks per window that trip the breaker
	window    time.Duration // rate window
	cooldown  time.Duration // slow-path pin duration after a trip

	trips atomic.Uint64
	open  atomic.Bool

	mu        sync.Mutex
	winStart  time.Time
	winBase   uint64 // session fallback count at window start
	openUntil time.Time
}

// newBreaker builds the breaker from the session config, or nil when
// the config leaves it disarmed.
func newBreaker(s *Session) *breaker {
	if s.cfg.BreakerFallbacks <= 0 {
		return nil
	}
	b := &breaker{
		s:         s,
		threshold: uint64(s.cfg.BreakerFallbacks),
		window:    s.cfg.BreakerWindow,
		cooldown:  s.cfg.BreakerCooldown,
	}
	if b.window <= 0 {
		b.window = defaultBreakerWindow
	}
	if b.cooldown <= 0 {
		b.cooldown = defaultBreakerCooldown
	}
	return b
}

// allow reports whether the fast path may be used right now, advancing
// the breaker's window/trip state machine. fallbacks is the session-
// scoped woodbury_fallbacks total. Called once per retained-evaluator
// construction — a handful of times per fault — so a mutex is fine.
func (b *breaker) allow(now time.Time, fallbacks uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open.Load() {
		if now.Before(b.openUntil) {
			return false
		}
		// Cool-down over: close the breaker and start a fresh window.
		b.open.Store(false)
		b.winStart, b.winBase = now, fallbacks
		b.s.tr.Emit("breaker_reset", obs.I64("trips", int64(b.trips.Load())))
		return true
	}
	if b.winStart.IsZero() || now.Sub(b.winStart) > b.window {
		b.winStart, b.winBase = now, fallbacks
		return true
	}
	if fallbacks-b.winBase >= b.threshold {
		b.trips.Add(1)
		b.open.Store(true)
		b.openUntil = now.Add(b.cooldown)
		b.s.tr.Emit("breaker_trip",
			obs.I64("fallbacks_in_window", int64(fallbacks-b.winBase)),
			obs.I64("threshold", int64(b.threshold)),
			obs.I64("cooldown_ms", b.cooldown.Milliseconds()))
		return false
	}
	return true
}

// stats snapshots the breaker for engine metrics.
func (b *breaker) stats() engine.BreakerStats {
	return engine.BreakerStats{Trips: b.trips.Load(), Open: b.open.Load()}
}

// sessionFallbacks returns the session's Woodbury fallback count.
func (s *Session) sessionFallbacks() uint64 {
	return s.simOpts.Probe.Counters().WoodburyFallbacks
}
