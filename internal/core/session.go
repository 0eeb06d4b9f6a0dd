// Package core implements the paper's test-generation methodology on top
// of the simulation substrate: the sensitivity cost function S_f over
// tolerance boxes, tps-graphs, fault-specific test generation with
// impact manipulation (Fig. 6), test-set compaction with the δ loss
// budget (§4.1), and fault-coverage evaluation of a test set.
//
// All parallel evaluation flows through internal/engine: a work-stealing
// worker pool with context cancellation, a sharded single-flight nominal
// cache, and per-phase metrics (see Session.Metrics).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testcfg"
	"repro/internal/tolerance"
)

// DetectedSentinel is the sensitivity value reported when the faulty
// circuit cannot be simulated at all (no convergence): such a
// catastrophic defect trivially fails any test, so it counts as a strong
// detection while keeping the cost function finite for the optimizer.
const DetectedSentinel = -1e3

// BoxMode selects how tolerance-box functions are built for a session.
type BoxMode int

const (
	// BoxGrid samples process corners on a grid over each configuration's
	// parameter space and interpolates (the full box-function build).
	BoxGrid BoxMode = iota
	// BoxSeed calibrates a constant box from corner runs at the seed
	// parameters only. Much cheaper; used by tests and quick runs.
	BoxSeed
	// BoxMonteCarlo calibrates a constant box from random process samples
	// at the seed parameters (tolerance.MonteCarloDeviation) instead of
	// deterministic corners.
	BoxMonteCarlo
)

// Config tunes a Session.
type Config struct {
	// BoxMode selects the box-function construction (default BoxGrid).
	BoxMode BoxMode
	// BoxGridN is the per-axis sample count for BoxGrid (default 5).
	BoxGridN int
	// Corners are the process corners for box construction.
	Corners []tolerance.Corner
	// Workers bounds the parallelism of evaluation (default:
	// runtime.GOMAXPROCS(0)).
	Workers int
	// OptTol is the optimizer tolerance (default 1e-3).
	OptTol float64
	// SoftImpactFactor is the impact-weakening factor applied before
	// per-configuration optimization so the fault model sits in its
	// soft-fault tps region (§3.2; default 4).
	SoftImpactFactor float64
	// MinImpact is the strongest model resistance the impact loop may
	// reach before declaring a fault undetectable (default 1 Ω).
	MinImpact float64
	// MaxImpact caps impact weakening (default 1e9 Ω).
	MaxImpact float64
	// MCSamples is the sample count for BoxMonteCarlo (default 32).
	MCSamples int
	// MCSeed seeds the BoxMonteCarlo RNG for reproducible boxes.
	MCSeed int64
	// Tracer, when non-nil, receives a span/event record of the run:
	// per-phase and per-task spans, per-optimizer-iteration S_f events,
	// fault verdicts, nominal-cache hits and misses, and per-analysis
	// solver spans. Nil (the default) disables tracing; instrumented
	// paths then cost a nil check.
	Tracer *obs.Tracer
	// Progress, when non-nil, tracks phase/unit completion for live
	// export (/progress). Nil disables the tracking.
	Progress *obs.Progress
	// Retry, when non-nil, enables the fault-tolerant retry machinery:
	// perturbed optimizer restarts, per-attempt deadlines, and the
	// simulation-level recovery ladder. Nil (the default) reproduces the
	// fail-fast seed behavior exactly.
	Retry *RetryPolicy
	// CheckpointPath, when non-empty, enables crash-safe checkpointing of
	// per-fault generation results to the given file (atomic rename +
	// fsync on every write).
	CheckpointPath string
	// CheckpointEvery debounces checkpoint writes (default 2s; results
	// are also flushed on completion and on cancellation).
	CheckpointEvery time.Duration
	// Resume makes GenerateAllContext skip faults already completed in
	// the checkpoint file, after verifying its version and fingerprint.
	Resume bool
	// DisableFastPath turns off the retained fault evaluators
	// (fastpath.go), forcing every sensitivity evaluation through the
	// throwaway insert+rebuild path. The switch exists for benchmarking
	// the speedup and for the identity property tests.
	DisableFastPath bool
	// CrossCheck runs every fast-path sensitivity evaluation through the
	// throwaway path as well, and recomputes every analysis the memo
	// serves on a freshly built circuit, failing the run on any bit
	// difference — the debug mode backing the fast path's and the memo's
	// transparency claims. Expensive; off by default.
	CrossCheck bool
	// StallTimeout arms the per-attempt stall watchdog: a fault×config
	// optimization that produces no objective evaluations for this long
	// is canceled and quarantined with reason "stalled". 0 (the default)
	// disables the watchdog.
	StallTimeout time.Duration
}

// DefaultConfig returns the settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		BoxMode:          BoxGrid,
		BoxGridN:         5,
		Corners:          tolerance.DefaultCorners(),
		Workers:          0, // GOMAXPROCS
		OptTol:           1e-3,
		SoftImpactFactor: 4,
		MinImpact:        1,
		MaxImpact:        1e9,
	}
}

// Session binds a golden macro netlist to its test configurations and
// tolerance-box functions, memoizes nominal responses in a sharded
// single-flight cache, runs each distinct box-build and faulty analysis
// once (memo.go), and keeps the engines of its nominal and box-build
// analyses for reuse (pool.go). A Session is safe for concurrent use.
type Session struct {
	golden  *circuit.Circuit
	configs []*testcfg.Config
	boxes   []tolerance.BoxFunc
	cfg     Config
	eng     *engine.Engine
	tr      *obs.Tracer   // nil: tracing disabled
	prog    *obs.Progress // nil: progress tracking disabled

	// groups are the configurations that share one simulation
	// (testcfg.SharesAnalysis); configuration ci is
	// groups[groupOf[ci]][memberOf[ci]].
	groups            [][]*testcfg.Config
	groupOf, memberOf []int
	memo              *analysisMemo
	pool              *evalPool
	// crossFailed latches the first CrossCheck failure (latch).
	crossFailed atomic.Pointer[error]

	nominalRuns atomic.Int64
	cacheHits   atomic.Int64
	faultyRuns  atomic.Int64
	faultyFails atomic.Int64
	memoHits    atomic.Int64

	retries      atomic.Int64
	undetermined atomic.Int64
	quarMu       sync.Mutex
	quarantined  []QuarantineRecord

	// simOpts are the solver options of every simulation the session
	// runs: the retry policy's recovery ladder, and a probe of its own
	// that counts, times and traces exactly those simulations.
	simOpts sim.Options
}

// Stats summarizes the simulation effort a session has spent — the
// paper's stated cost metric ("global optimization requires a much
// larger amount of simulations which we consider unacceptable").
type Stats struct {
	// NominalRuns counts fault-free measurement simulations.
	NominalRuns int64
	// CacheHits counts nominal evaluations served from the nominal cache
	// (including callers that joined an in-flight simulation).
	CacheHits int64
	// FaultyRuns counts faulty-circuit measurement simulations.
	FaultyRuns int64
	// MemoHits counts the faulty measurements the analysis memo served
	// without simulating: the same faulty circuit at the same parameters
	// was already simulated for this configuration or for one sharing its
	// analysis. NominalRuns + FaultyRuns + MemoHits is the simulation
	// count of a session without the memo.
	MemoHits int64
	// FaultyFailures counts faulty runs that did not converge (reported
	// as DetectedSentinel).
	FaultyFailures int64
	// Retries counts perturbed optimizer restarts taken under the retry
	// policy.
	Retries int64
	// Undetermined counts faults that ended as VerdictUndetermined.
	Undetermined int64
	// Quarantined counts fault×config tasks isolated after a panic.
	Quarantined int64
}

// Stats returns a snapshot of the session's simulation counters.
func (s *Session) Stats() Stats {
	s.quarMu.Lock()
	nq := int64(len(s.quarantined))
	s.quarMu.Unlock()
	return Stats{
		NominalRuns:    s.nominalRuns.Load(),
		CacheHits:      s.cacheHits.Load(),
		FaultyRuns:     s.faultyRuns.Load(),
		MemoHits:       s.memoHits.Load(),
		FaultyFailures: s.faultyFails.Load(),
		Retries:        s.retries.Load(),
		Undetermined:   s.undetermined.Load(),
		Quarantined:    nq,
	}
}

// Metrics snapshots the evaluation engine's observability counters:
// per-phase wall-clock timings (box build, per-config optimization,
// impact loops, fault simulation, tps sweeps) and nominal-cache
// effectiveness, plus the solver counters and per-analysis histograms
// of the session's own simulations.
func (s *Session) Metrics() engine.Metrics {
	m := s.eng.Metrics()
	m.Solver = s.simOpts.Probe.Counters()
	m.Durations = s.simOpts.Probe.Histograms()
	return m
}

// NewSession builds the box functions (corner simulations) and returns a
// ready session. It is NewSessionContext with context.Background().
func NewSession(golden *circuit.Circuit, configs []*testcfg.Config, cfg Config) (*Session, error) {
	return NewSessionContext(context.Background(), golden, configs, cfg)
}

// NewSessionContext builds a session, honoring ctx during the (possibly
// expensive) tolerance-box construction. Returns an error wrapping
// ErrNoConfigs when configs is empty, and one wrapping ErrCanceled when
// ctx ends before the boxes are built.
func NewSessionContext(ctx context.Context, golden *circuit.Circuit, configs []*testcfg.Config, cfg Config) (*Session, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("%w (macro %q)", ErrNoConfigs, golden.Name())
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BoxGridN < 2 {
		cfg.BoxGridN = 5
	}
	if cfg.OptTol <= 0 {
		cfg.OptTol = 1e-3
	}
	if cfg.SoftImpactFactor <= 1 {
		cfg.SoftImpactFactor = 4
	}
	if cfg.MinImpact <= 0 {
		cfg.MinImpact = 1
	}
	if cfg.MaxImpact <= cfg.MinImpact {
		cfg.MaxImpact = 1e9
	}
	if len(cfg.Corners) == 0 {
		cfg.Corners = tolerance.DefaultCorners()
	}
	s := &Session{
		golden:  golden,
		configs: configs,
		cfg:     cfg,
		tr:      cfg.Tracer,
		prog:    cfg.Progress,
		eng:     engine.New(engine.Options{Workers: cfg.Workers}),
		memo:    newAnalysisMemo(),
		pool:    newEvalPool(),
	}
	s.groups, s.groupOf, s.memberOf = groupConfigs(configs)
	s.eng.SetTracer(cfg.Tracer)
	// Sessions without a retry policy get no ladder, so their solves stay
	// bit-identical to the ladder-free kernel.
	s.simOpts = sim.DefaultOptions()
	s.simOpts.Recovery = cfg.Retry.ladder()
	var hook sim.TraceHook
	if cfg.Tracer.Enabled() {
		// Surface per-analysis solver spans.
		tr := cfg.Tracer
		hook = func(analysis string, d time.Duration, delta sim.Counters) {
			tr.Complete("sim."+analysis, d,
				obs.I64("stamps", int64(delta.Stamps)),
				obs.I64("factorizations", int64(delta.Factorizations)),
				obs.I64("factor_reuses", int64(delta.FactorReuses)),
				obs.I64("newton_iters", int64(delta.NewtonIterations)),
				obs.I64("solves", int64(delta.Solves)),
				obs.I64("base_hits", int64(delta.BaseHits)))
		}
	}
	s.simOpts.Probe = sim.NewProbe(hook)
	boxes, err := s.buildBoxes(ctx)
	if err != nil {
		return nil, err
	}
	s.boxes = boxes
	s.pool.dropCorners()
	return s, nil
}

// Golden returns the fault-free macro.
func (s *Session) Golden() *circuit.Circuit { return s.golden }

// Config returns the session's effective configuration (defaults
// applied). Callers use it to reconstruct the wire request a session
// corresponds to; mutating the returned copy has no effect.
func (s *Session) Config() Config { return s.cfg }

// Configs returns the session's test configurations.
func (s *Session) Configs() []*testcfg.Config { return s.configs }

// Box returns the tolerance-box function for configuration index ci.
func (s *Session) Box(ci int) tolerance.BoxFunc { return s.boxes[ci] }

// cornerDeviation runs the fault-free circuit at every corner and
// returns the max deviation per return value of configuration ci at
// parameters T. Every run goes through the analysis memo, so the
// configurations of one group share their grid simulations.
func (s *Session) cornerDeviation(ci int, T []float64) ([]float64, error) {
	nom, _, err := s.analyze(goldenID, ci, T, nil)
	if err != nil {
		return nil, err
	}
	var corners [][]float64
	for _, k := range s.cfg.Corners {
		r, _, err := s.analyze(cornerID(k), ci, T, nil)
		if err != nil {
			return nil, fmt.Errorf("corner %s: %w", k.Name, err)
		}
		corners = append(corners, r)
	}
	return tolerance.MaxDeviation(nom, corners), nil
}

// buildBoxes constructs one box function per configuration on the
// engine pool.
func (s *Session) buildBoxes(ctx context.Context) ([]tolerance.BoxFunc, error) {
	s.prog.SetPhase(PhaseBoxBuild, len(s.configs))
	boxes := make([]tolerance.BoxFunc, len(s.configs))
	err := s.eng.ForEach(ctx, len(s.configs), func(ctx context.Context, i int) error {
		defer s.eng.Time(PhaseBoxBuild)()
		defer s.prog.Step(1)
		c := s.configs[i]
		ctx, sp := s.tr.Start(ctx, "box-build", obs.Int("config", c.ID))
		defer sp.End()
		switch s.cfg.BoxMode {
		case BoxSeed:
			dev, err := s.cornerDeviation(i, c.Seeds())
			if err != nil {
				return fmt.Errorf("core: box for config #%d: %w", c.ID, err)
			}
			acc := c.Accuracies()
			hw := make(tolerance.ConstBox, len(dev))
			for r := range dev {
				hw[r] = dev[r] + acc[r]
			}
			boxes[i] = hw
		case BoxMonteCarlo:
			n := s.cfg.MCSamples
			if n <= 0 {
				n = 32
			}
			seeds := c.Seeds()
			dev, err := tolerance.MonteCarloDeviation(s.golden, tolerance.DefaultSpread(), n,
				s.cfg.MCSeed+int64(i), func(ck *circuit.Circuit) ([]float64, error) {
					return s.run(c, ck, seeds)
				})
			if err != nil {
				return fmt.Errorf("core: MC box for config #%d: %w", c.ID, err)
			}
			acc := c.Accuracies()
			hw := make(tolerance.ConstBox, len(dev))
			for r := range dev {
				hw[r] = dev[r] + acc[r]
			}
			boxes[i] = hw
		default: // BoxGrid
			b := c.Bounds()
			gb, err := tolerance.BuildGridBox(b.Lo, b.Hi, s.cfg.BoxGridN, c.Accuracies(),
				func(T []float64) ([]float64, error) { return s.cornerDeviation(i, T) })
			if err != nil {
				return fmt.Errorf("core: box for config #%d: %w", c.ID, err)
			}
			boxes[i] = gb
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return boxes, nil
}

// nomKey quantizes a parameter vector into a cache key.
func nomKey(ci int, T []float64) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(ci))
	for _, v := range T {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(v, 'e', 12, 64))
	}
	return b.String()
}

// Nominal returns the fault-free return values of configuration ci at
// parameters T, memoized in the sharded single-flight cache: concurrent
// misses on the same parameter point run one simulation and share it.
// A miss simulates on a pooled golden evaluator (pool.go) without asking
// the analysis memo: which exact T fills a quantized key depends on the
// order faults are generated in, so a memo lookup here would make the
// simulation count depend on it (DESIGN.md §16).
func (s *Session) Nominal(ci int, T []float64) ([]float64, error) {
	r, hit, err := s.eng.Cache().GetOrCompute(nomKey(ci, T), func() ([]float64, error) {
		r, err := s.runPooled(goldenID, s.groupOf[ci], s.configs[ci:ci+1], T)
		s.nominalRuns.Add(1)
		if err != nil {
			return nil, err
		}
		return r[0], nil
	})
	if hit {
		s.cacheHits.Add(1)
		s.tr.Emit("cache_hit", obs.Int("config", s.configs[ci].ID))
	} else if err == nil {
		s.tr.Emit("cache_miss", obs.Int("config", s.configs[ci].ID))
	}
	return r, err
}

// Sensitivity evaluates the paper's cost function for fault f under
// configuration ci at parameters T:
//
//	S_f(T) = min_i ( 1 − |r_f,i(T) − r_nom,i(T)| / r_box,i(T) )
//
// S_f = 1 means the faulty response coincides with the nominal one
// (insensitive); S_f < 0 means guaranteed detection. When the faulty
// circuit cannot be simulated, DetectedSentinel is returned (see its
// doc).
func (s *Session) Sensitivity(ci int, f fault.Fault, T []float64) (float64, error) {
	return s.sensitivity(ci, f, T, true)
}

// sensitivity is Session.Sensitivity; with viaMemo false the faulty
// circuit is simulated even when the analysis memo holds it (the slow
// side of CrossCheck, which must not read the memo).
func (s *Session) sensitivity(ci int, f fault.Fault, T []float64, viaMemo bool) (float64, error) {
	nom, err := s.Nominal(ci, T)
	if err != nil {
		return 0, fmt.Errorf("core: nominal for config #%d at %v: %w", s.configs[ci].ID, T, err)
	}
	var insertErr error
	run := func(cfgs []*testcfg.Config) ([][]float64, error) {
		ckt, err := f.Insert(s.golden)
		if err != nil {
			insertErr = err
			return nil, err
		}
		return testcfg.RunGroup(cfgs, ckt, T, s.simOpts)
	}
	var rf []float64
	served := false
	if viaMemo {
		rf, served, err = s.analyze(faultID(f, f.ID(), f.Impact()), ci, T, run)
	} else {
		var all [][]float64
		if all, err = run(s.configs[ci : ci+1]); err == nil {
			rf = all[0]
		}
	}
	if insertErr != nil {
		return 0, insertErr
	}
	if errors.Is(err, errMemoMismatch) {
		return 0, err
	}
	s.countFaulty(served)
	if err != nil {
		// Catastrophically broken circuit: counts as detected.
		s.faultyFails.Add(1)
		return DetectedSentinel, nil
	}
	return s.score(ci, T, nom, rf), nil
}

// run is Config.Run on the session's solver options.
func (s *Session) run(c *testcfg.Config, ckt *circuit.Circuit, T []float64) ([]float64, error) {
	r, err := testcfg.RunGroup([]*testcfg.Config{c}, ckt, T, s.simOpts)
	if err != nil {
		return nil, err
	}
	return r[0], nil
}

// countFaulty counts one faulty measurement: a simulation, or a memo hit.
func (s *Session) countFaulty(served bool) {
	if served {
		s.memoHits.Add(1)
	} else {
		s.faultyRuns.Add(1)
	}
}

// score folds a faulty response into S_f against the nominal response
// and configuration ci's tolerance box at T.
func (s *Session) score(ci int, T []float64, nom, rf []float64) float64 {
	box := s.boxes[ci].Halfwidths(T)
	sf := math.Inf(1)
	for i := range nom {
		hw := box[i]
		if hw <= 0 {
			hw = 1e-12
		}
		v := 1 - math.Abs(rf[i]-nom[i])/hw
		if v < sf {
			sf = v
		}
	}
	return sf
}

// Detects reports whether configuration ci at parameters T detects fault
// f (S_f < 0).
func (s *Session) Detects(ci int, f fault.Fault, T []float64) (bool, error) {
	sf, err := s.Sensitivity(ci, f, T)
	if err != nil {
		return false, err
	}
	return sf < 0, nil
}
