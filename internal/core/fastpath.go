package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/testcfg"
)

// The impact-search fast path. Session.Sensitivity rebuilds the faulty
// world on every call: insert the fault into the golden netlist, clone,
// compile, allocate an engine, solve. The impact loop calls it dozens of
// times per fault varying only the fault resistance, and the optimizer
// hundreds of times varying only the stimulus parameters — both leave
// the circuit's structure fixed.
//
// A faultEval amortizes the structure: the fault is inserted and the
// configuration's evaluator prepared once per (fault, configuration)
// pair, and each evaluation only retargets the fault resistor
// (sim.Engine.Retarget). The retained engine then restamps from its
// invalidated snapshots and refactors, which the kernel guarantees
// bit-identical to a fresh engine, on linear and nonlinear macros alike.
//
// Eligibility is conservative: the session must not disable the path,
// and the fault must name its impact resistor (fault.Retargetable). Any
// construction failure silently yields the throwaway path — the fast
// path is an optimization, never a semantic fork.

// ladderMargin is the decision margin of the warm-start impact ladder: a
// warm (approximate) sensitivity within this distance of a decision
// boundary — the S_f < 0 detection threshold, or the gap to the
// most-sensitive candidate — is recomputed exactly before any decision
// consumes it. Warm and exact evaluations differ by the Newton
// convergence tolerance (~1e-6 relative), orders of magnitude below this
// margin, so decisions match the exact path while typical ladder steps
// run warm.
const ladderMargin = 0.1

// deepDetectSF is the floor below which warm values are always
// recomputed exactly: far in the detection zone the tolerance boxes can
// be degenerate (hw floored at 1e-12), which amplifies seed-dependent
// solver noise enough that the margin argument no longer applies.
const deepDetectSF = -100

// faultEval is a retained evaluator for one (fault, configuration)
// pair. Like the engine it wraps, it belongs to a single goroutine.
type faultEval struct {
	s     *Session
	f     fault.Fault
	fid   string // f.ID(), resolved once
	ci    int
	ev    *testcfg.Evaluator
	dev   string // fault resistor name, resolved once per fault
	evals int
}

// newFaultEval builds the retained evaluator for (f, ci), or nil when
// the pair is ineligible or construction fails; the caller then uses the
// throwaway path, so a nil return is never an error.
func (s *Session) newFaultEval(f fault.Fault, ci int) *faultEval {
	if s.cfg.DisableFastPath {
		return nil
	}
	rf, ok := f.(fault.Retargetable)
	if !ok {
		return nil
	}
	fc, err := rf.Insert(s.golden)
	if err != nil {
		return nil
	}
	ev, err := s.configs[ci].Prepare(fc, s.simOpts)
	if err != nil {
		return nil
	}
	return &faultEval{s: s, f: f, fid: f.ID(), ci: ci, ev: ev, dev: rf.ImpactDevice()}
}

// eval runs one faulty evaluation at the given impact on the retained
// engine and folds it into S_f with exactly Session.Sensitivity's
// arithmetic. warm selects the warm-start recipe; cold runs go through
// the analysis memo. runErr distinguishes "the faulty circuit did not
// converge" (reported via the sentinel by exact callers) from
// infrastructure errors, a memo CrossCheck mismatch included.
func (fe *faultEval) eval(impact float64, T []float64, warm bool) (sf float64, runErr error, err error) {
	s := fe.s
	nom, err := s.Nominal(fe.ci, T)
	if err != nil {
		return 0, nil, fmt.Errorf("core: nominal for config #%d at %v: %w", s.configs[fe.ci].ID, T, err)
	}
	if err := fe.ev.Retarget(fe.dev, impact); err != nil {
		return 0, nil, err
	}
	// retained counts one simulation on the retained engine.
	retained := func() {
		if fe.evals > 0 {
			// Every evaluation after the first skipped a full
			// insert+clone+compile+factor cycle.
			s.simOpts.Probe.Add(sim.Counters{FaultyFactorAvoided: 1})
		}
		fe.evals++
	}
	var rf []float64
	if warm {
		retained()
		s.faultyRuns.Add(1)
		rf, runErr = fe.ev.RunWarm(T)
	} else {
		var served bool
		rf, served, runErr = s.analyze(faultID(fe.f, fe.fid, impact), fe.ci, T,
			func(cfgs []*testcfg.Config) ([][]float64, error) {
				retained()
				return fe.ev.RunGroup(cfgs, T)
			})
		if errors.Is(runErr, errMemoMismatch) {
			return 0, nil, runErr
		}
		s.countFaulty(served)
	}
	if runErr != nil {
		return 0, runErr, nil
	}
	return s.score(fe.ci, T, nom, rf), nil, nil
}

// sensitivity is the exact fast-path evaluation: bit-identical to
// Session.Sensitivity(ci, f.WithImpact(impact), T), including the
// DetectedSentinel semantics for non-convergent faulty circuits. With
// Config.CrossCheck set it also runs the throwaway path and fails the
// run on any bit difference.
func (fe *faultEval) sensitivity(impact float64, T []float64) (float64, error) {
	sf, runErr, err := fe.eval(impact, T, false)
	if err != nil {
		return 0, err
	}
	if runErr != nil {
		// Catastrophically broken circuit: counts as detected.
		fe.s.faultyFails.Add(1)
		sf = DetectedSentinel
	}
	if fe.s.cfg.CrossCheck {
		slow, err := fe.s.sensitivity(fe.ci, fe.f.WithImpact(impact), T, false)
		if err != nil {
			return 0, fmt.Errorf("core: cross-check of %s under config #%d: %w",
				fe.f.ID(), fe.s.configs[fe.ci].ID, err)
		}
		if math.Float64bits(sf) != math.Float64bits(slow) {
			return 0, fe.s.latch(fmt.Errorf("core: fast path disagrees for %s under config #%d at impact %g: fast %v, slow %v",
				fe.f.ID(), fe.s.configs[fe.ci].ID, impact, sf, slow))
		}
	}
	return sf, nil
}

// sensitivityWarm evaluates with the previous solution as the Newton
// seed and reports whether the returned value is exact. Configurations
// without a warm recipe (and cross-checked sessions) evaluate exactly; a
// warm run that fails to converge is not a verdict — the fault might
// converge from a cold start — so it falls back to the exact evaluation
// instead of reporting the sentinel.
func (fe *faultEval) sensitivityWarm(impact float64, T []float64) (float64, bool, error) {
	if !fe.ev.HasWarm() || fe.s.cfg.CrossCheck {
		sf, err := fe.sensitivity(impact, T)
		return sf, true, err
	}
	sf, runErr, err := fe.eval(impact, T, true)
	if err != nil {
		return 0, false, err
	}
	if runErr != nil {
		sf, err := fe.sensitivity(impact, T)
		return sf, true, err
	}
	return sf, false, nil
}

// evalSensitivity routes one exact sensitivity evaluation through the
// retained evaluator when one exists, and through Session.Sensitivity
// otherwise. The two are bit-identical; only the setup cost differs.
func (s *Session) evalSensitivity(fe *faultEval, ci int, f fault.Fault, T []float64) (float64, error) {
	if fe == nil {
		return s.Sensitivity(ci, f, T)
	}
	return fe.sensitivity(f.Impact(), T)
}
