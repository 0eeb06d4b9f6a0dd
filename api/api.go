// Package api is the versioned public wire schema of the test
// generator: the JSON request/response types exchanged between clients,
// the atpgd job server, and the CLI tools. Every top-level message
// carries an explicit schema version field ("v") so readers can reject
// messages from the future and accept messages from the past
// deliberately rather than by accident.
//
// The package is a leaf: it imports only the standard library, defines
// no behavior beyond validation and encoding, and every type is plain
// data. Conversions from the engine's internal types live in the repro
// facade (SessionRequest, FromRequest, WireMetrics, WireResult), so the
// wire schema never depends on internal packages.
//
// Version history:
//
//	1 — initial schema: JobRequest/JobStatus/JobResult/MetricsSnapshot
//	    and the server status envelope.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Version is the current wire schema version, stamped into every
// message this package encodes.
const Version = 1

// Builtin macro names accepted in MacroSpec.Builtin.
const (
	// MacroIVConverter is the paper's CMOS IV-converter case study
	// (10 nodes, 10 MOSFETs, 55-fault dictionary). The default.
	MacroIVConverter = "iv-converter"
	// MacroSimpleIVConverter is the reduced single-stage variant
	// (9 nodes, 8 MOSFETs, 44-fault dictionary).
	MacroSimpleIVConverter = "simple-iv-converter"
)

// Box-construction modes accepted in RunOptions.BoxMode.
const (
	BoxModeGrid       = "grid"
	BoxModeSeed       = "seed"
	BoxModeMonteCarlo = "montecarlo"
)

// MacroSpec selects the macro under test and its test configurations.
type MacroSpec struct {
	// Builtin names a built-in macro (MacroIVConverter when empty and no
	// inline netlist is given).
	Builtin string `json:"builtin,omitempty"`
	// Netlist is an inline SPICE-like netlist; when set it overrides
	// Builtin.
	Netlist string `json:"netlist,omitempty"`
	// NetlistName labels an inline netlist in reports ("custom" when
	// empty).
	NetlistName string `json:"netlist_name,omitempty"`
	// ExtendedConfigs adds the SINAD extension configuration (#6) to the
	// paper's Table-1 set.
	ExtendedConfigs bool `json:"extended_configs,omitempty"`
	// ConfigDSL holds additional test configuration descriptions in the
	// Fig.-1 DSL, appended after the built-in configurations.
	ConfigDSL []string `json:"config_dsl,omitempty"`
}

// FaultSpec bounds the fault dictionary of a run.
type FaultSpec struct {
	// Limit keeps only the first n dictionary faults (0: all).
	Limit int `json:"limit,omitempty"`
}

// RunOptions tunes the generation session. The zero value selects the
// experiment-grade defaults.
type RunOptions struct {
	// Workers bounds the evaluation parallelism (0: GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// BoxMode selects the tolerance-box construction: BoxModeGrid
	// (default), BoxModeSeed (fast), or BoxModeMonteCarlo.
	BoxMode string `json:"box_mode,omitempty"`
	// BoxGridN is the per-axis sample count of grid boxes.
	BoxGridN int `json:"box_grid_n,omitempty"`
	// OptTol is the Brent/Powell optimizer tolerance.
	OptTol float64 `json:"opt_tol,omitempty"`
	// MCSamples and MCSeed tune BoxModeMonteCarlo calibration.
	MCSamples int   `json:"mc_samples,omitempty"`
	MCSeed    int64 `json:"mc_seed,omitempty"`
	// Retries arms the fault-tolerant retry policy with the given
	// optimizer attempt budget when > 1 (0 or 1: fail fast).
	Retries int `json:"retries,omitempty"`
	// AttemptTimeoutMS bounds each optimizer attempt under Retries.
	AttemptTimeoutMS int64 `json:"attempt_timeout_ms,omitempty"`
	// DisableLowRank turns off the retained fault evaluators of the
	// impact search, so every faulty evaluation rebuilds its circuit. The
	// switch exists for benchmarking and debugging.
	DisableLowRank bool `json:"disable_lowrank,omitempty"`
	// StallTimeoutMS arms the stall watchdog: a fault×config optimizer
	// task that produces no evaluations for this long is cancelled and
	// quarantined with reason "stalled" (0: watchdog off).
	StallTimeoutMS int64 `json:"stall_timeout_ms,omitempty"`
	// BreakerFallbacks, BreakerWindowMS and BreakerCooldownMS tuned a
	// circuit breaker the solver no longer has. They are accepted for v1
	// compatibility (and still rejected when negative) and have no effect.
	BreakerFallbacks  int   `json:"breaker_fallbacks,omitempty"`
	BreakerWindowMS   int64 `json:"breaker_window_ms,omitempty"`
	BreakerCooldownMS int64 `json:"breaker_cooldown_ms,omitempty"`
}

// CompactSpec tunes test-set compaction.
type CompactSpec struct {
	// Delta is the paper's δ loss budget (0 selects the default 0.1).
	Delta float64 `json:"delta,omitempty"`
}

// JobRequest is one ATPG job submission: macro and fault selection, the
// session options, and the compaction budget. A CLI run and a server
// job are the same typed object (see repro.SessionRequest /
// repro.SystemFromRequest).
type JobRequest struct {
	// V is the wire schema version (0 is normalized to 1 for
	// hand-written requests).
	V       int         `json:"v"`
	Macro   MacroSpec   `json:"macro"`
	Faults  FaultSpec   `json:"faults,omitempty"`
	Options RunOptions  `json:"options,omitempty"`
	Compact CompactSpec `json:"compact,omitempty"`
}

// Normalize fills defaulted fields: a zero version becomes 1, an empty
// macro becomes the built-in IV-converter.
func (r *JobRequest) Normalize() {
	if r.V == 0 {
		r.V = 1
	}
	if r.Macro.Builtin == "" && r.Macro.Netlist == "" {
		r.Macro.Builtin = MacroIVConverter
	}
}

// Validate checks the request against the schema this package
// implements: a known version, a known macro, a known box mode, and
// sane numeric bounds.
func (r JobRequest) Validate() error {
	if r.V < 1 || r.V > Version {
		return fmt.Errorf("api: unsupported request schema version %d (this server speaks v1..v%d)", r.V, Version)
	}
	if r.Macro.Netlist == "" {
		switch r.Macro.Builtin {
		case "", MacroIVConverter, MacroSimpleIVConverter:
		default:
			return fmt.Errorf("api: unknown builtin macro %q", r.Macro.Builtin)
		}
	}
	switch r.Options.BoxMode {
	case "", BoxModeGrid, BoxModeSeed, BoxModeMonteCarlo:
	default:
		return fmt.Errorf("api: unknown box mode %q", r.Options.BoxMode)
	}
	if r.Faults.Limit < 0 {
		return fmt.Errorf("api: negative fault limit %d", r.Faults.Limit)
	}
	if r.Compact.Delta < 0 || r.Compact.Delta >= 1 {
		return fmt.Errorf("api: compaction delta %g outside [0, 1)", r.Compact.Delta)
	}
	if r.Options.Workers < 0 || r.Options.Retries < 0 || r.Options.AttemptTimeoutMS < 0 {
		return fmt.Errorf("api: negative run option")
	}
	if r.Options.StallTimeoutMS < 0 || r.Options.BreakerFallbacks < 0 ||
		r.Options.BreakerWindowMS < 0 || r.Options.BreakerCooldownMS < 0 {
		return fmt.Errorf("api: negative run option")
	}
	return nil
}

// JobState is the lifecycle state of a server job.
type JobState string

const (
	// StateQueued: accepted and waiting for a worker slot.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateSucceeded: finished with a result.
	StateSucceeded JobState = "succeeded"
	// StateFailed: finished with an error.
	StateFailed JobState = "failed"
	// StateCanceled: canceled by DELETE before completion.
	StateCanceled JobState = "canceled"
	// StateInterrupted: the daemon died or drained mid-job; the job
	// resumes from its checkpoint on restart.
	StateInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final (the job will not run
// again on this daemon instance).
func (s JobState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Verdict is the terminal classification of one fault, mirroring the
// runtime's taxonomy.
type Verdict string

const (
	VerdictDetected     Verdict = "detected"
	VerdictUndetectable Verdict = "undetectable"
	VerdictUndetermined Verdict = "undetermined"
	VerdictQuarantined  Verdict = "quarantined"
)

// ProgressInfo is the wire form of a live progress snapshot.
type ProgressInfo struct {
	Phase     string  `json:"phase"`
	Done      int64   `json:"done"`
	Total     int64   `json:"total"`
	Percent   float64 `json:"percent"`
	ElapsedMS int64   `json:"elapsed_ms"`
	ETAMS     int64   `json:"eta_ms,omitempty"`
	// Run-health counters from the fault-tolerant runtime.
	Quarantined      int64 `json:"quarantined,omitempty"`
	Retries          int64 `json:"retries,omitempty"`
	Undetermined     int64 `json:"undetermined,omitempty"`
	Resumed          int64 `json:"resumed,omitempty"`
	CheckpointWrites int64 `json:"checkpoint_writes,omitempty"`
}

// JobStatus is the lifecycle view of one job (GET /v1/jobs/{id}).
type JobStatus struct {
	V     int      `json:"v"`
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Created/Started/Finished are RFC 3339 timestamps ("" when the
	// transition has not happened).
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Progress is present while the job runs.
	Progress *ProgressInfo `json:"progress,omitempty"`
	// Verdicts counts faults per terminal verdict once the job finished.
	Verdicts map[Verdict]int `json:"verdicts,omitempty"`
	// Quarantined lists isolated task panics.
	Quarantined []QuarantineInfo `json:"quarantined,omitempty"`
	// Error is the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// Attempts counts how many times this daemon (re)started the job
	// (> 1 after a crash/drain resume).
	Attempts int `json:"attempts,omitempty"`
	// EventsDropped counts SSE events lost to slow subscribers of this
	// job's stream (the journal file remains complete). Absent on
	// records written before the histogram release.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

// QuarantineInfo describes one isolated fault×config task the runtime
// took out of the run: a recovered panic or a stall-watchdog kill.
type QuarantineInfo struct {
	FaultID string `json:"fault_id"`
	Config  int    `json:"config"` // -1: whole-fault selection loop
	Phase   string `json:"phase"`
	Panic   string `json:"panic,omitempty"`
	// Reason classifies the quarantine: "panic" (default when absent on
	// old records) or "stalled" (stall-watchdog cancellation).
	Reason string `json:"reason,omitempty"`
}

// SolutionInfo is the wire form of one fault's generated test.
type SolutionInfo struct {
	FaultID string  `json:"fault_id"`
	Verdict Verdict `json:"verdict"`
	// Config is the winning configuration's paper ID (-1 when the fault
	// is unresolved).
	Config int       `json:"config"`
	Params []float64 `json:"params,omitempty"`
	// Sensitivity is S_f at the dictionary impact.
	Sensitivity    float64 `json:"sensitivity"`
	CriticalImpact float64 `json:"critical_impact,omitempty"`
	Evals          int     `json:"evals"`
	ImpactIters    int     `json:"impact_iters"`
	Attempts       int     `json:"attempts,omitempty"`
}

// TestInfo is one test of the compacted set.
type TestInfo struct {
	Config     int       `json:"config"`
	ConfigName string    `json:"config_name"`
	Params     []float64 `json:"params"`
	// Covers lists the fault IDs collapsed into this test.
	Covers []string `json:"covers"`
}

// CoverageInfo summarizes fault simulation of the compacted set.
type CoverageInfo struct {
	Detected   int      `json:"detected"`
	Total      int      `json:"total"`
	Percent    float64  `json:"percent"`
	Undetected []string `json:"undetected,omitempty"`
}

// JobResult is the deterministic outcome of a job (GET
// /v1/jobs/{id}/result): everything in it depends only on the request,
// never on timing, worker count, or resume history — so an interrupted
// and resumed job encodes to the same bytes as an uninterrupted one,
// and a server job to the same bytes as the equivalent CLI run.
type JobResult struct {
	V      int     `json:"v"`
	Macro  string  `json:"macro"`
	Faults int     `json:"faults"`
	Delta  float64 `json:"delta"`
	// Solutions holds one entry per dictionary fault, in dictionary
	// order.
	Solutions []SolutionInfo `json:"solutions"`
	// Tests is the compacted test set.
	Tests    []TestInfo   `json:"tests"`
	Coverage CoverageInfo `json:"coverage"`
}

// HistogramBucket is one non-empty bucket of a latency distribution:
// Count observations with values in [Lo, Hi] inclusive (nanoseconds for
// duration series). Buckets are non-cumulative and sorted ascending.
type HistogramBucket struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Count uint64 `json:"n"`
}

// HistogramSnapshot is the wire form of one latency (or value)
// distribution: totals, extremes, precomputed percentiles, and the raw
// log-linear buckets for consumers that re-aggregate (the Prometheus
// exposition turns them cumulative). Percentiles are midpoint estimates
// within the histogram's documented relative-error bound.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P99     int64             `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the arithmetic mean of the recorded values (0 when
// empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// NamedHistogram pairs a distribution with its series name (e.g.
// "sim.op", "sim.newton_iters").
type NamedHistogram struct {
	Name string `json:"name"`
	HistogramSnapshot
}

// PhaseMetrics is the wire form of one engine phase's counters.
type PhaseMetrics struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	WallNS int64  `json:"wall_ns"`
	// Latency is the phase's per-unit wall-time distribution. Nil on
	// records written before schema additions in the histogram release
	// (decoders must tolerate absence) and omitted when empty.
	Latency *HistogramSnapshot `json:"latency,omitempty"`
}

// Avg returns the mean wall time per unit in nanoseconds.
func (p PhaseMetrics) Avg() int64 {
	if p.Count == 0 {
		return 0
	}
	return p.WallNS / p.Count
}

// CacheMetrics is the wire form of the nominal-response cache counters.
type CacheMetrics struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Shared    int64 `json:"shared"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// HitRate returns the fraction of lookups served without a fresh
// simulation.
func (c CacheMetrics) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// SolverMetrics is the wire form of the simulation kernel's counters.
type SolverMetrics struct {
	Stamps           uint64 `json:"stamps"`
	Factorizations   uint64 `json:"factorizations"`
	FactorReuses     uint64 `json:"factor_reuses"`
	NewtonIterations uint64 `json:"newton_iterations"`
	Solves           uint64 `json:"solves"`
	BaseBuilds       uint64 `json:"base_builds"`
	BaseHits         uint64 `json:"base_hits"`
	RecoveryAttempts uint64 `json:"recovery_attempts,omitempty"`
	Recoveries       uint64 `json:"recoveries,omitempty"`
	// WoodburySolves and WoodburyFallbacks counted a low-rank solve path
	// the solver no longer has. They stay in v1 for compatibility and
	// are never set.
	WoodburySolves    uint64 `json:"woodbury_solves,omitempty"`
	WoodburyFallbacks uint64 `json:"woodbury_fallbacks,omitempty"`
	// FaultyFactorAvoided counts faulty evaluations served by a retained
	// evaluator. Zero (and omitted) on runs that never routed a fault
	// through one, which keeps pre-fast-path consumers byte-compatible.
	FaultyFactorAvoided uint64 `json:"faulty_factor_avoided,omitempty"`
}

// MetricsSnapshot is the versioned wire form of an engine metrics
// snapshot — what -stats prints, what the journal's run_end record
// embeds, and what the server's /metrics endpoint serves per job.
type MetricsSnapshot struct {
	V          int            `json:"v"`
	Phases     []PhaseMetrics `json:"phases,omitempty"`
	Cache      CacheMetrics   `json:"cache"`
	Solver     SolverMetrics  `json:"solver"`
	TaskPanics int64          `json:"task_panics,omitempty"`
	// BreakerTrips and BreakerOpen reported a circuit breaker the solver
	// no longer has. They stay in v1 for compatibility and are never set.
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
	BreakerOpen  bool   `json:"breaker_open,omitempty"`
	// Durations holds latency distributions from below the engine's
	// phase accounting: the simulation kernel's per-analysis wall times
	// ("sim.op", "sim.transient", ...) and its "sim.newton_iters" value
	// histogram. Absent on records written before the histogram release;
	// decoders tolerate absence.
	Durations []NamedHistogram `json:"durations,omitempty"`
}

// ServerStatus is the daemon-level health envelope (/healthz and the
// server section of /metrics).
type ServerStatus struct {
	V int `json:"v"`
	// State is "serving" or "draining".
	State    string `json:"state"`
	UptimeMS int64  `json:"uptime_ms"`
	// Queue depth and capacity of the bounded submission queue.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Jobs counts jobs per lifecycle state.
	Jobs map[JobState]int `json:"jobs"`
	// EventsDropped totals SSE events lost to slow subscribers across
	// all jobs this daemon knows of. Absent when zero; decoders
	// tolerate absence.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// MemShedding is true while the memory watermark monitor is
	// rejecting submissions; MemShedTotal counts submissions shed since
	// start. Absent when the monitor never shed; decoders tolerate
	// absence.
	MemShedding  bool   `json:"mem_shedding,omitempty"`
	MemShedTotal uint64 `json:"mem_shed_total,omitempty"`
	// Distributed is true when this daemon coordinates shard workers;
	// Workers counts the currently registered fleet and ShardsPending
	// the shards queued for assignment. Absent on single-node daemons;
	// decoders tolerate absence.
	Distributed   bool `json:"distributed,omitempty"`
	Workers       int  `json:"workers,omitempty"`
	ShardsPending int  `json:"shards_pending,omitempty"`
}

// ErrorReply is the JSON error envelope of every non-2xx response.
type ErrorReply struct {
	V     int    `json:"v"`
	Error string `json:"error"`
	// RetryAfterMS hints when to retry a 429-rejected submission.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Encode marshals v deterministically in the canonical wire form:
// two-space indentation, sorted map keys (encoding/json's default), and
// a trailing newline. Both the CLI's -result-json file and the server's
// result endpoint encode through this one function, which is what makes
// "byte-identical" a meaningful comparison between them.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("api: encode: %w", err)
	}
	return buf.Bytes(), nil
}
