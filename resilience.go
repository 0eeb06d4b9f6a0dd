package repro

import (
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Resilience types, re-exported from the generation core: the retry
// policy of the fault-tolerant runtime, the verdict taxonomy that
// refines the boolean Undetectable, and the quarantine report.
type (
	// RetryPolicy bounds how hard the runtime fights per-fault failures
	// (perturbed optimizer restarts, per-attempt deadlines, the
	// simulation recovery ladder) before a fault ends as
	// VerdictUndetermined.
	RetryPolicy = core.RetryPolicy
	// Verdict is the terminal classification of one fault.
	Verdict = core.Verdict
	// QuarantineRecord describes one isolated task panic.
	QuarantineRecord = core.QuarantineRecord
	// Relaxation is one rung of the simulation-level re-solve ladder.
	Relaxation = sim.Relaxation
)

// Verdict values (Solution.Verdict).
const (
	VerdictDetected     = core.VerdictDetected
	VerdictUndetectable = core.VerdictUndetectable
	VerdictUndetermined = core.VerdictUndetermined
	VerdictQuarantined  = core.VerdictQuarantined
)

// Quarantine reasons (QuarantineRecord.Reason).
const (
	QuarantinePanic   = core.QuarantinePanic
	QuarantineStalled = core.QuarantineStalled
)

// DefaultRetryPolicy returns three optimizer attempts with the standard
// simulation recovery ladder and no per-attempt deadline.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }

// StandardRecovery returns the default simulation re-solve ladder:
// progressively looser tolerances and a raised gmin floor, ordered from
// least to most accuracy lost.
func StandardRecovery() []Relaxation { return sim.StandardRecovery() }

// WithRetryPolicy enables the fault-tolerant retry machinery: stalled
// Brent/Powell optimizations restart from deterministically perturbed
// seeds, per-attempt deadlines bound runaway attempts, and the policy's
// relaxed-tolerance/raised-gmin ladder re-solves operating points that
// defeat plain Newton, gmin stepping, and source stepping. Faults that
// still fail end as VerdictUndetermined instead of aborting the run.
// Without this option, failures abort the run exactly as before.
func WithRetryPolicy(p RetryPolicy) Option {
	return optionFunc(func(c *core.Config) { c.Retry = &p })
}

// Quarantined returns the task panics isolated during this system's
// runs, sorted by fault then configuration.
func (s *System) Quarantined() []QuarantineRecord { return s.session.Quarantined() }

// WithStallTimeout arms the per-attempt stall watchdog: a fault×config
// optimization whose objective produces no evaluations for d is canceled
// and quarantined with reason "stalled" (core.QuarantineStalled) instead
// of wedging the run. Cancellation is cooperative — the watchdog bounds
// silent inactivity between simulations, it cannot preempt code stuck
// inside one. d <= 0 disables the watchdog (the default).
func WithStallTimeout(d time.Duration) Option {
	return optionFunc(func(c *core.Config) { c.StallTimeout = d })
}

// WithCheckpoint enables crash-safe checkpointing of per-fault
// generation results to path: every write is atomic (temp file + fsync +
// rename + directory fsync), debounced to at most one per interval
// (every <= 0 selects 2s), and flushed on completion and cancellation.
// With resume set, faults already completed in a compatible checkpoint
// (same version and run fingerprint) are skipped — a killed run picks up
// where its last checkpoint left off and produces bit-identical results.
func WithCheckpoint(path string, every time.Duration, resume bool) Option {
	return optionFunc(func(c *core.Config) {
		c.CheckpointPath = path
		c.CheckpointEvery = every
		c.Resume = resume
	})
}
