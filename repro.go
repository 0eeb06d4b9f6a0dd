// Package repro is a from-scratch reproduction of "Compact Structural
// Test Generation for Analog Macros" (Kaal & Kerkhoff, ED&TC/DATE 1997):
// fault-model driven test generation for analog macros, evaluated on a
// CMOS IV-converter.
//
// The package is the public facade over the building blocks:
//
//   - a complete analog circuit simulator (MNA, Newton–Raphson DC,
//     trapezoidal transient, small-signal AC) with level-1 MOSFETs,
//   - structural fault models (node-pair bridges, Eckersall gate-oxide
//     pinholes) with impact manipulation,
//   - tolerance boxes from process corners plus equipment accuracy,
//   - Brent/Powell test-parameter optimization,
//   - the paper's generation algorithm (per-fault optimization, impact
//     relax/intensify selection) and test-set compaction with the δ loss
//     budget,
//   - a concurrent evaluation engine (internal/engine): work-stealing
//     worker pool, sharded single-flight nominal cache, per-phase
//     metrics (System.Metrics).
//
// # Quick start
//
//	sys, err := repro.NewIVConverterSystem(repro.WithFastBoxes())
//	sols, err := sys.GenerateAll(sys.Faults())
//	compact, err := sys.Compact(sols, repro.DefaultCompactOptions())
//	cov, err := sys.Coverage(repro.TestsOfCompact(compact), sys.Faults())
//
// Constructors take functional options (WithWorkers, WithBoxMode,
// WithCorners, ...).
//
// # Cancellation
//
// Long-running entry points have context-accepting variants
// (GenerateAllContext, CoverageContext, CompactContext, ...) that stop
// promptly when the context is canceled or its deadline expires,
// returning an error wrapping ErrCanceled. The context-free methods
// delegate with context.Background().
//
// # Errors
//
// The facade exposes typed sentinel errors for errors.Is:
//
//   - ErrNoConvergence — the circuit simulator's Newton iteration failed
//     (wrapped by simulation-backed calls);
//   - ErrCanceled — a context was canceled mid-evaluation;
//   - ErrNoConfigs — a System was constructed without test
//     configurations.
package repro

import (
	"context"

	"repro/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/sim"
	"repro/internal/testcfg"
)

// Sentinel errors, re-exported from the internal packages that produce
// them so callers can errors.Is instead of string-matching.
var (
	// ErrNoConvergence is wrapped into errors from simulations whose
	// Newton iteration failed to converge.
	ErrNoConvergence = sim.ErrNoConvergence
	// ErrCanceled is wrapped into errors returned because a context was
	// canceled or its deadline expired mid-evaluation.
	ErrCanceled = core.ErrCanceled
	// ErrNoConfigs is wrapped into the error returned when a System or
	// Session is built without test configurations.
	ErrNoConfigs = core.ErrNoConfigs
)

// Re-exported core types. Aliases keep the one canonical implementation
// in internal packages while giving users nameable types.
type (
	// Session drives sensitivity evaluation, generation and compaction.
	Session = core.Session
	// Solution is the optimal test generated for one fault.
	Solution = core.Solution
	// Candidate is a per-configuration optimized test for one fault.
	Candidate = core.Candidate
	// Test is a runnable (configuration, parameters) pair.
	Test = core.Test
	// CompactTest is one collapsed test of a compacted set.
	CompactTest = core.CompactTest
	// CompactOptions carries the δ loss budget and grouping radius.
	CompactOptions = core.CompactOptions
	// CoverageReport summarizes fault simulation of a test set.
	CoverageReport = core.CoverageReport
	// Distribution is the Table-2 style best-test histogram.
	Distribution = core.Distribution
	// TPSGraph is a test-parameter sensitivity graph (paper Figs. 2-4).
	TPSGraph = core.TPSGraph
	// BoxMode selects the tolerance-box construction for a session.
	BoxMode = core.BoxMode
	// Fault is a structural defect with a manipulable impact.
	Fault = fault.Fault
	// Bridge is a resistive node-pair short.
	Bridge = fault.Bridge
	// Pinhole is an Eckersall gate-oxide short.
	Pinhole = fault.Pinhole
	// TestConfig is a test configuration implementation (paper Fig. 1).
	TestConfig = testcfg.Config
	// Circuit is a device netlist.
	Circuit = circuit.Circuit
)

// Box modes for WithBoxMode.
const (
	// BoxGrid builds grid-interpolated box functions from corner runs.
	BoxGrid = core.BoxGrid
	// BoxSeed calibrates a constant box at the seed parameters only.
	BoxSeed = core.BoxSeed
	// BoxMonteCarlo calibrates a constant box from random process samples.
	BoxMonteCarlo = core.BoxMonteCarlo
)

// Dictionary fault impacts used by the paper's experiment.
const (
	// BridgeImpact is the initial bridge resistance (10 kΩ).
	BridgeImpact = 10e3
	// PinholeImpact is the initial pinhole shunt resistance (2 kΩ).
	PinholeImpact = 2e3
)

// DefaultCompactOptions returns δ = 0.1 with the default grouping radius.
func DefaultCompactOptions() CompactOptions { return core.DefaultCompactOptions() }

// NewIVConverter returns the CMOS IV-converter macro netlist (10 circuit
// nodes, 10 MOSFETs), the paper's case-study design.
func NewIVConverter() *Circuit { return macros.IVConverter() }

// IVConfigs returns the five test configuration implementations of the
// paper's Table 1.
func IVConfigs() []*TestConfig { return testcfg.IVConfigs() }

// ExtendedIVConfigs returns the Table-1 configurations plus the SINAD
// extension (#6), demonstrating the framework's test-configuration
// extension point.
func ExtendedIVConfigs() []*TestConfig { return testcfg.ExtendedIVConfigs() }

// IVFaultDictionary enumerates the paper's exhaustive 55-fault list for
// the macro: 45 node-pair bridges at 10 kΩ and 10 pinholes at 2 kΩ.
func IVFaultDictionary(c *Circuit) []Fault {
	return fault.Dictionary(c, BridgeImpact, PinholeImpact)
}

// TestsOf flattens generation solutions into a deduplicated test list.
func TestsOf(sols []*Solution) []Test { return core.TestsOf(sols) }

// TestsOfCompact flattens a compacted set into runnable tests.
func TestsOfCompact(cts []CompactTest) []Test { return core.TestsOfCompact(cts) }

// System bundles a golden macro, its fault dictionary, and a session —
// the one-stop entry point for the common flow.
type System struct {
	session *Session
	golden  *Circuit
	faults  []Fault
	// request is the wire request this system was built from (nil for
	// option-built systems; see SessionRequest).
	request *api.JobRequest
}

// NewIVConverterSystem builds the IV-converter macro, its 55-fault
// dictionary, the five test configurations and a session. Options are
// applied over the experiment-grade defaults:
//
//	sys, err := repro.NewIVConverterSystem(
//		repro.WithWorkers(16), repro.WithBoxMode(repro.BoxSeed))
func NewIVConverterSystem(opts ...Option) (*System, error) {
	return NewSystem(macros.IVConverter(), testcfg.IVConfigs(), opts...)
}

// NewSystem builds a system for a custom macro and configurations; the
// fault dictionary is enumerated exhaustively from the macro structure.
func NewSystem(golden *Circuit, cfgs []*TestConfig, opts ...Option) (*System, error) {
	return NewSystemContext(context.Background(), golden, cfgs, opts...)
}

// NewSystemContext is NewSystem honoring ctx during the (possibly
// expensive) tolerance-box construction.
func NewSystemContext(ctx context.Context, golden *Circuit, cfgs []*TestConfig, opts ...Option) (*System, error) {
	s, err := core.NewSessionContext(ctx, golden, cfgs, resolveConfig(opts))
	if err != nil {
		return nil, err
	}
	return &System{
		session: s,
		golden:  golden,
		faults:  fault.Dictionary(golden, BridgeImpact, PinholeImpact),
	}, nil
}

// Session exposes the underlying session for advanced use.
func (s *System) Session() *Session { return s.session }

// Golden returns the fault-free macro.
func (s *System) Golden() *Circuit { return s.golden }

// Faults returns the fault dictionary.
func (s *System) Faults() []Fault { return s.faults }

// Configs returns the test configurations.
func (s *System) Configs() []*TestConfig { return s.session.Configs() }

// Generate produces the optimal test for one fault.
func (s *System) Generate(f Fault) (*Solution, error) { return s.session.Generate(f) }

// GenerateContext is Generate honoring ctx.
func (s *System) GenerateContext(ctx context.Context, f Fault) (*Solution, error) {
	return s.session.GenerateContext(ctx, f)
}

// GenerateAll produces the optimal test for every fault.
func (s *System) GenerateAll(faults []Fault) ([]*Solution, error) {
	return s.session.GenerateAll(faults)
}

// GenerateAllContext is GenerateAll honoring ctx: it returns promptly
// with an error wrapping ErrCanceled when ctx ends.
func (s *System) GenerateAllContext(ctx context.Context, faults []Fault) ([]*Solution, error) {
	return s.session.GenerateAllContext(ctx, faults)
}

// Compact collapses fault-specific tests into a compact set.
func (s *System) Compact(sols []*Solution, o CompactOptions) ([]CompactTest, error) {
	return s.session.Compact(sols, o)
}

// CompactContext is Compact honoring ctx.
func (s *System) CompactContext(ctx context.Context, sols []*Solution, o CompactOptions) ([]CompactTest, error) {
	return s.session.CompactContext(ctx, sols, o)
}

// Coverage fault-simulates a test set against a fault list.
func (s *System) Coverage(tests []Test, faults []Fault) (CoverageReport, error) {
	return s.session.Coverage(tests, faults)
}

// CoverageContext is Coverage honoring ctx.
func (s *System) CoverageContext(ctx context.Context, tests []Test, faults []Fault) (CoverageReport, error) {
	return s.session.CoverageContext(ctx, tests, faults)
}

// Tabulate builds the Table-2 distribution from generation results.
func (s *System) Tabulate(sols []*Solution) Distribution { return s.session.Tabulate(sols) }

// TPS computes a tps-graph for a fault under configuration index ci.
func (s *System) TPS(ci int, f Fault, n1, n2 int) (*TPSGraph, error) {
	return s.session.TPS(ci, f, n1, n2)
}

// TPSContext is TPS honoring ctx.
func (s *System) TPSContext(ctx context.Context, ci int, f Fault, n1, n2 int) (*TPSGraph, error) {
	return s.session.TPSContext(ctx, ci, f, n1, n2)
}

// Sensitivity evaluates the paper's cost function S_f.
func (s *System) Sensitivity(ci int, f Fault, T []float64) (float64, error) {
	return s.session.Sensitivity(ci, f, T)
}
