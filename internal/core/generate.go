package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/opt"
)

// fpOptEval fires once per objective evaluation, before the simulation
// pair. Arm it with a sleep to wedge an optimization attempt (exercising
// the stall watchdog) or with an error to poison evaluation points. One
// atomic load per evaluation — noise next to a simulation pair.
var fpOptEval = failpoint.At("core.opt.eval")

// Candidate is the optimized test of one configuration for one fault:
// the result of minimizing S_f over the configuration's parameter box
// with the fault weakened into its soft-fault tps region.
type Candidate struct {
	ConfigIdx int
	Params    []float64
	// SoftS is the optimized sensitivity of the weakened fault model.
	SoftS float64
	// Evals counts objective evaluations (simulation pairs) spent.
	Evals int
	// Attempts counts optimizer attempts taken (1 without a retry
	// policy; up to RetryPolicy.MaxAttempts with one).
	Attempts int
	// Failed marks a candidate whose every attempt stalled (no valid
	// evaluation); only set under a retry policy. Selection skips it.
	Failed bool
	// Quarantined marks a candidate whose optimization task panicked and
	// was isolated. Selection skips it.
	Quarantined bool
}

// usable reports whether selection may evaluate this candidate.
func (c Candidate) usable() bool { return !c.Failed && !c.Quarantined }

// Solution is the best test for one fault: the output of the paper's
// Fig. 6 scheme.
type Solution struct {
	Fault     fault.Fault
	ConfigIdx int
	Params    []float64
	// Sensitivity is S_f at the dictionary impact and the winning
	// parameters.
	Sensitivity float64
	// CriticalImpact is the model resistance at which exactly one test
	// still detected the fault during the selection loop.
	CriticalImpact float64
	// Undetectable is set when even the strongest allowed impact is
	// detected by no test; Params then hold the most sensitive test.
	Undetectable bool
	// Undetermined is set when the runtime could not produce a usable
	// test (persistent non-convergence through every retry rung);
	// ConfigIdx is -1 and Params nil. Only produced under a retry policy.
	Undetermined bool
	// Quarantined is set when a panic isolated this fault's tasks and no
	// surviving configuration produced a test; ConfigIdx is -1.
	Quarantined bool
	// Resumed marks a solution restored from a checkpoint rather than
	// computed this run (Candidates and Trace are then absent).
	Resumed bool
	// Candidates are the per-configuration optimized tests.
	Candidates []Candidate
	// Evals is the total number of objective evaluations spent.
	Evals int
	// Attempts is the total number of optimizer attempts across
	// configurations (equals the configuration count without retries).
	Attempts int
	// ImpactIters counts iterations of the impact relax/intensify loop.
	ImpactIters int
	// Trace records the impact loop step by step (paper Fig. 6).
	Trace []ImpactStep
}

// Verdict classifies the solution's terminal outcome.
func (sol *Solution) Verdict() Verdict {
	switch {
	case sol.Quarantined:
		return VerdictQuarantined
	case sol.Undetermined:
		return VerdictUndetermined
	case sol.Undetectable:
		return VerdictUndetectable
	default:
		return VerdictDetected
	}
}

// ImpactStep is one iteration of the impact relax/intensify loop.
type ImpactStep struct {
	Impact float64
	// Sens holds S_f per candidate (configuration order).
	Sens []float64
	// Detects is the number of candidates with S_f < 0.
	Detects int
}

// ConfigID resolves the paper numbering of the winning configuration,
// or -1 for unresolved (undetermined/quarantined) solutions.
func (sol *Solution) ConfigID(s *Session) int {
	if sol.ConfigIdx < 0 {
		return -1
	}
	return s.configs[sol.ConfigIdx].ID
}

// Generate produces the optimal test for one fault. It is
// GenerateContext with context.Background().
func (s *Session) Generate(f fault.Fault) (*Solution, error) {
	return s.GenerateContext(context.Background(), f)
}

// GenerateContext produces the optimal test for one fault:
//
//  1. For every test configuration, the fault is weakened by the
//     SoftImpactFactor (into its soft-fault tps region) and the test
//     parameters are optimized with Brent/Powell from the seed values.
//  2. Starting from the dictionary impact, the fault impact is relaxed
//     while more than one optimized test detects the model and
//     intensified while none does, with damped factors after a reversal,
//     until a unique most-sensitive test survives (the critical impact
//     level).
//
// Cancellation of ctx aborts both steps promptly with an error wrapping
// ErrCanceled.
func (s *Session) GenerateContext(ctx context.Context, f fault.Fault) (*Solution, error) {
	defer s.eng.Time(PhaseFaultE2E)()
	cands := make([]Candidate, len(s.configs))
	err := s.eng.ForEach(ctx, len(s.configs), func(ctx context.Context, ci int) error {
		c, err := s.optimizeCandidate(ctx, f, ci)
		if err != nil {
			return err
		}
		cands[ci] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	sol, err := s.selectTest(ctx, f, cands)
	if err == nil {
		err = s.crossCheckFailure()
	}
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// optimizeCandidate runs step 1 for one (fault, configuration) pair.
// Under a retry policy, an attempt whose best objective is still the
// poison value (meaning not a single evaluation succeeded — a Brent or
// Powell trajectory wandering a non-convergent region, or an expired
// per-attempt deadline) is restarted from a deterministically perturbed
// seed, up to the policy's attempt budget; a candidate that exhausts the
// budget is marked Failed and skipped by selection instead of aborting
// the run.
func (s *Session) optimizeCandidate(ctx context.Context, f fault.Fault, ci int) (Candidate, error) {
	defer s.eng.Time(PhaseOptimize)()
	soft := fault.Weaken(f.WithImpact(f.InitialImpact()), s.cfg.SoftImpactFactor)
	c := s.configs[ci]
	// The soft-fault impact is fixed for the whole optimization, so one
	// retained evaluator serves every objective evaluation (nil when the
	// pair is ineligible: the objective then uses the throwaway path).
	fe := s.newFaultEval(soft, ci)
	ctx, sp := s.tr.Start(ctx, "optimize",
		obs.String("fault", f.ID()), obs.Int("config", c.ID))
	// Every return path below ends the span with its own attributes — but
	// a device-model panic unwinds straight to the engine's Recover
	// boundary, where the pair is quarantined and the run completes. The
	// sealed journal must not carry an open span for it.
	ended := false
	defer func() {
		if !ended {
			sp.End(obs.String("error", "panic"))
		}
	}()
	box := c.Bounds()
	evals := 0
	var watch opt.IterObserver
	if s.tr.Enabled() {
		watch = func(stage string, iter int, _ []float64, fx float64) {
			s.tr.Event(ctx, "opt_iter",
				obs.String("stage", stage), obs.Int("iter", iter), obs.F64("s_f", fx))
		}
	}

	policy := s.cfg.Retry
	budget := policy.attempts()
	var res opt.Result
	attempts := 0
	for attempt := 0; attempt < budget; attempt++ {
		attempts++
		actx := ctx
		cancel := context.CancelFunc(func() {})
		if policy != nil && policy.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, policy.AttemptTimeout)
		}
		var wd *watchdog
		if s.cfg.StallTimeout > 0 {
			actx, wd = startWatchdog(actx, s.cfg.StallTimeout)
		}
		obj := func(T []float64) float64 {
			if actx.Err() != nil {
				// Poison every point so the optimizer retreats and returns
				// quickly; cancellation is reported below, an expired
				// attempt deadline counts as a stall.
				return poisonSF
			}
			wd.touch()
			if err := fpOptEval.Hit(); err != nil {
				return poisonSF
			}
			evals++
			sf, err := s.evalSensitivity(fe, ci, soft, T)
			if err != nil {
				// An unreachable parameter point: poison it so the
				// optimizer retreats.
				return poisonSF
			}
			return sf
		}
		res = opt.MinimizeObserved(obj, box, s.perturbedSeed(f.ID(), c.ID, attempt, box, c.Seeds()),
			s.cfg.OptTol, watch)
		cancel()
		if wd != nil {
			wd.stop()
			if stalled(actx) {
				// The watchdog killed this attempt: the task produced no
				// progress for the configured deadline. Quarantine the pair
				// (reason "stalled") instead of retrying — a wedged device
				// model will wedge the retry too.
				s.quarantineStall(PhaseOptimize, f.ID(), c.ID)
				sp.End(obs.String("error", "stalled"))
				return Candidate{ConfigIdx: ci, SoftS: poisonSF, Evals: evals,
					Attempts: attempts, Quarantined: true}, nil
			}
		}
		if err := ctx.Err(); err != nil {
			ended = true
			sp.End(obs.String("error", "canceled"))
			return Candidate{}, fmt.Errorf("%w: optimization of %s under config #%d: %w",
				ErrCanceled, f.ID(), c.ID, err)
		}
		if res.F < poisonSF {
			break // at least one valid evaluation: not a stall
		}
		if attempt+1 < budget {
			s.retries.Add(1)
			s.prog.AddRetries(1)
			s.tr.Event(ctx, "retry",
				obs.String("fault", f.ID()), obs.Int("config", c.ID), obs.Int("attempt", attempt+1))
		}
	}
	cand := Candidate{ConfigIdx: ci, Params: res.X, SoftS: res.F, Evals: evals, Attempts: attempts}
	if policy != nil && res.F >= poisonSF {
		cand.Failed = true
	}
	ended = true
	sp.End(obs.F64("soft_s", res.F), obs.Int("evals", evals), obs.Int("attempts", attempts))
	return cand, nil
}

// selectTest runs step 2 (the impact relax/intensify selection loop of
// Fig. 6) over the per-configuration candidates. Candidates that failed
// optimization or were quarantined are skipped; if none survive (or
// every surviving one stops evaluating under a retry policy), the fault
// ends as VerdictUndetermined/VerdictQuarantined instead of aborting.
func (s *Session) selectTest(ctx context.Context, f fault.Fault, cands []Candidate) (*Solution, error) {
	defer s.eng.Time(PhaseImpact)()
	sol := &Solution{Fault: f, Candidates: cands}
	ctx, sp := s.tr.Start(ctx, "impact-loop", obs.String("fault", f.ID()))
	defer func() { sp.End(obs.Int("iters", sol.ImpactIters)) }()
	for _, c := range cands {
		sol.Evals += c.Evals
		sol.Attempts += c.Attempts
	}
	usable := make([]bool, len(cands))
	nUsable := 0
	for i, c := range cands {
		if c.usable() {
			usable[i] = true
			nUsable++
		}
	}
	if nUsable == 0 {
		return s.unresolved(ctx, sol), nil
	}

	// Selection with impact manipulation. For bridges/pinholes weakening
	// raises the model resistance; for inverted models (opens) the
	// direction flips, which fault.Weaken/Strengthen encapsulate.
	//
	// Retained evaluators, one per usable candidate (nil entries use the
	// throwaway path). The ladder holds each candidate's parameters fixed
	// while only the impact moves, so eligible candidates evaluate with a
	// warm Newton seed and the decision-margin pass below recomputes
	// exactly wherever an approximate value could affect a decision —
	// signs, detect counts and the argmin therefore match the exact path,
	// while typical ladder steps run warm. Trace sensitivities may be
	// warm values (agreeing to solver tolerance); everything a decision
	// or the Solution reports is exact.
	fes := make([]*faultEval, len(cands))
	for i, c := range cands {
		if usable[i] {
			fes[i] = s.newFaultEval(f, c.ConfigIdx)
		}
	}
	fi := f.WithImpact(f.InitialImpact())
	factor := 2.0
	lastDir := 0 // +1 weaken, -1 strengthen
	winner := -1
	sens := make([]float64, len(cands))
	exact := make([]bool, len(cands))
	for iter := 0; iter < 60; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: selection for %s: %w", ErrCanceled, f.ID(), err)
		}
		sol.ImpactIters++
		for i, c := range cands {
			if !usable[i] {
				sens[i] = poisonSF
				exact[i] = true
				continue
			}
			var sf float64
			var ex bool
			var err error
			if fes[i] != nil {
				sf, ex, err = fes[i].sensitivityWarm(fi.Impact(), c.Params)
			} else {
				sf, err = s.Sensitivity(c.ConfigIdx, fi, c.Params)
				ex = true
			}
			if err != nil {
				if s.cfg.Retry == nil {
					return nil, fmt.Errorf("core: selection for %s: %w", f.ID(), err)
				}
				// Nominal non-convergence at this candidate's parameters:
				// under a retry policy, drop the candidate instead of
				// aborting the whole run.
				usable[i] = false
				nUsable--
				sens[i] = poisonSF
				exact[i] = true
				continue
			}
			sens[i], exact[i] = sf, ex
		}
		if nUsable == 0 {
			return s.unresolved(ctx, sol), nil
		}
		// Decision-margin pass: an approximate value near the detection
		// threshold, deep in the detection zone (degenerate boxes amplify
		// solver noise there), or within the margin of the current minimum
		// is recomputed exactly before any decision consumes it.
		for {
			changed := false
			minS := math.Inf(1)
			for i := range cands {
				if usable[i] && sens[i] < minS {
					minS = sens[i]
				}
			}
			for i := range cands {
				if !usable[i] || exact[i] {
					continue
				}
				if math.Abs(sens[i]) > ladderMargin && sens[i] > deepDetectSF && sens[i] > minS+ladderMargin {
					continue
				}
				sf, err := fes[i].sensitivity(fi.Impact(), cands[i].Params)
				if err != nil {
					if s.cfg.Retry == nil {
						return nil, fmt.Errorf("core: selection for %s: %w", f.ID(), err)
					}
					usable[i] = false
					nUsable--
					sens[i] = poisonSF
					exact[i] = true
					changed = true
					continue
				}
				sens[i] = sf
				exact[i] = true
				changed = true
			}
			if !changed {
				break
			}
		}
		if nUsable == 0 {
			return s.unresolved(ctx, sol), nil
		}
		detects := 0
		best := -1
		for i := range cands {
			if !usable[i] {
				continue
			}
			if sens[i] < 0 {
				detects++
			}
			if best < 0 || sens[i] < sens[best] {
				best = i
			}
		}
		sol.Trace = append(sol.Trace, ImpactStep{
			Impact:  fi.Impact(),
			Sens:    append([]float64(nil), sens...),
			Detects: detects,
		})
		s.tr.Event(ctx, "impact_step",
			obs.F64("impact", fi.Impact()), obs.Int("detects", detects))
		switch {
		case detects == 1:
			winner = best
		case detects > 1:
			if lastDir == -1 {
				factor = math.Sqrt(factor)
			}
			lastDir = 1
			fi = fault.Weaken(fi, factor)
		default: // none detects
			if lastDir == 1 {
				factor = math.Sqrt(factor)
			}
			lastDir = -1
			fi = fault.Strengthen(fi, factor)
		}
		if winner >= 0 {
			break
		}
		impact := fi.Impact()
		if factor < 1.001 || impact > s.cfg.MaxImpact || impact < s.cfg.MinImpact {
			// Converged without a unique detector: take the most
			// sensitive test.
			winner = best
			strongLimit := impact < s.cfg.MinImpact
			if fault.Inverted(f) {
				strongLimit = impact > s.cfg.MaxImpact
			}
			if strongLimit {
				// Even maximal impact undetected anywhere.
				allPositive := true
				for _, v := range sens {
					if v < 0 {
						allPositive = false
					}
				}
				sol.Undetectable = allPositive
			}
			break
		}
	}
	if winner < 0 {
		// Loop exhausted while still flip-flopping; fall back to the most
		// sensitive candidate at the dictionary impact.
		winner = -1
		fd := f.WithImpact(f.InitialImpact())
		bestS := math.Inf(1)
		for i, c := range cands {
			if !usable[i] {
				continue
			}
			sf, err := s.evalSensitivity(fes[i], c.ConfigIdx, fd, c.Params)
			if err != nil {
				if s.cfg.Retry == nil {
					return nil, err
				}
				usable[i] = false
				nUsable--
				continue
			}
			if winner < 0 || sf < bestS {
				bestS = sf
				winner = i
			}
		}
		if winner < 0 {
			return s.unresolved(ctx, sol), nil
		}
	}

	sol.ConfigIdx = cands[winner].ConfigIdx
	sol.Params = cands[winner].Params
	sol.CriticalImpact = fi.Impact()
	// Record the sensitivity at the dictionary impact for compaction.
	fd := f.WithImpact(f.InitialImpact())
	sf, err := s.evalSensitivity(fes[winner], sol.ConfigIdx, fd, sol.Params)
	if err != nil {
		if s.cfg.Retry == nil {
			return nil, err
		}
		return s.unresolved(ctx, sol), nil
	}
	sol.Sensitivity = sf
	s.tr.Event(ctx, "fault_verdict",
		obs.String("fault", f.ID()),
		obs.Int("config", s.configs[sol.ConfigIdx].ID),
		obs.String("verdict", string(sol.Verdict())),
		obs.F64("s_f", sol.Sensitivity),
		obs.F64("critical_impact", sol.CriticalImpact),
		obs.Bool("undetectable", sol.Undetectable),
		obs.Int("evals", sol.Evals),
		obs.Int("attempts", sol.Attempts),
		obs.Int("impact_iters", sol.ImpactIters))
	return sol, nil
}

// unresolved finalizes a solution for which no usable test exists: the
// verdict is quarantined when a panic took out at least one candidate,
// undetermined otherwise (persistent non-convergence).
func (s *Session) unresolved(ctx context.Context, sol *Solution) *Solution {
	sol.ConfigIdx = -1
	sol.Params = nil
	sol.Sensitivity = poisonSF
	quarantined := false
	for _, c := range sol.Candidates {
		if c.Quarantined {
			quarantined = true
		}
	}
	sol.Quarantined = quarantined
	sol.Undetermined = !quarantined
	if sol.Undetermined {
		s.undetermined.Add(1)
		s.prog.AddUndetermined(1)
	}
	s.tr.Event(ctx, "fault_verdict",
		obs.String("fault", sol.Fault.ID()),
		obs.Int("config", -1),
		obs.String("verdict", string(sol.Verdict())),
		obs.Int("evals", sol.Evals),
		obs.Int("attempts", sol.Attempts),
		obs.Int("impact_iters", sol.ImpactIters))
	return sol
}

// GenerateAll generates the best test for every fault in the dictionary.
// It is GenerateAllContext with context.Background().
func (s *Session) GenerateAll(faults []fault.Fault) ([]*Solution, error) {
	return s.GenerateAllContext(context.Background(), faults)
}

// GenerateAllContext generates the best test for every fault on the
// engine's work-stealing pool. The optimization step is scheduled as a
// flat list of (fault, configuration) tasks — the unit of work the pool
// balances across cores — and each fault's selection loop runs as soon
// as its last configuration finishes (no phase barrier). Results keep
// the input order and are identical for any worker count.
// Cancellation of ctx aborts the run promptly with an error wrapping
// ErrCanceled.
//
// Failure semantics (see DESIGN.md §10): a panic inside a task is
// recovered at the task boundary and quarantines only that fault×config
// pair — the run completes and Quarantined() reports the isolation.
// The run is a MergeRun that the schedule fills: with
// Config.CheckpointPath set, completed per-fault results are
// periodically persisted (atomic rename + fsync), and with
// Config.Resume faults already present in a compatible checkpoint are
// skipped.
func (s *Session) GenerateAllContext(ctx context.Context, faults []fault.Fault) ([]*Solution, error) {
	m, err := s.OpenMerge(faults)
	if err != nil {
		return nil, err
	}
	if _, err := s.generate(ctx, m.Pending(), m.add); err != nil {
		m.Flush()
		return nil, err
	}
	return m.Solutions()
}

// generate runs the fused schedule over faults and returns their
// solutions in input order. Each solution is handed to record, when
// non-nil, as soon as its fault finishes.
func (s *Session) generate(ctx context.Context, faults []fault.Fault, record func(*Solution)) ([]*Solution, error) {
	nc := len(s.configs)
	ctx, sp := s.tr.Start(ctx, "generate-all",
		obs.Int("faults", len(faults)), obs.Int("configs", nc))
	defer sp.End()

	// Steps 1 and 2 fused: one optimization task per (fault,
	// configuration) pair — the unit of work the pool balances — and the
	// task that completes a fault's last configuration runs that fault's
	// selection loop inline. No barrier separates the steps, so per-fault
	// results stream into the checkpoint as soon as they exist: a run
	// killed mid-optimization resumes from every fault that had finished,
	// not from the last full phase boundary. Results are identical to the
	// two-phase schedule — each selection consumes exactly its own
	// fault's completed candidates.
	s.prog.SetPhase(PhaseGenerate, len(faults)*(nc+1))
	sols := make([]*Solution, len(faults))
	cands := make([]Candidate, len(faults)*nc)
	pending := make([]atomic.Int32, len(faults))
	// starts[fi] is the wall-clock nanosecond at which the first task of
	// fault fi began (CAS so only the first task wins); finishFault turns
	// it into the fault's end-to-end latency. The fused schedule has no
	// per-fault scope to defer a timer in, so the timestamp rides here.
	starts := make([]atomic.Int64, len(faults))
	for fi := range pending {
		pending[fi].Store(int32(nc))
	}
	err := s.eng.ForEach(ctx, len(faults)*nc, func(ctx context.Context, k int) error {
		defer s.prog.Step(1)
		fi, ci := k/nc, k%nc
		starts[fi].CompareAndSwap(0, time.Now().UnixNano())
		err := s.eng.Recover(k, func() error {
			c, err := s.optimizeCandidate(ctx, faults[fi], ci)
			if err != nil {
				return err
			}
			cands[k] = c
			return nil
		})
		var pe *engine.TaskPanicError
		if errors.As(err, &pe) {
			s.quarantine(PhaseOptimize, faults[fi].ID(), s.configs[ci].ID, pe)
			cands[k] = Candidate{ConfigIdx: ci, SoftS: poisonSF, Attempts: 1, Quarantined: true}
		} else if err != nil {
			return fmt.Errorf("core: fault %s: %w", faults[fi].ID(), err)
		}
		if pending[fi].Add(-1) != 0 {
			return nil
		}
		ferr := s.finishFault(ctx, faults[fi], cands[fi*nc:(fi+1)*nc], sols, fi, record)
		if t0 := starts[fi].Load(); t0 != 0 {
			s.eng.Observe(PhaseFaultE2E, time.Duration(time.Now().UnixNano()-t0))
		}
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return sols, nil
}

// finishFault runs the selection loop for one fault whose candidates
// are all complete, hands the solution to record, and steps the
// per-fault progress unit. A panic inside selection quarantines the
// whole fault.
func (s *Session) finishFault(ctx context.Context, f fault.Fault, cands []Candidate, sols []*Solution, fi int, record func(*Solution)) error {
	defer s.prog.Step(1)
	err := s.eng.Recover(fi, func() error {
		sol, err := s.selectTest(ctx, f, cands)
		if err != nil {
			return err
		}
		sols[fi] = sol
		return nil
	})
	var pe *engine.TaskPanicError
	if errors.As(err, &pe) {
		s.quarantine(PhaseImpact, f.ID(), -1, pe)
		sols[fi] = &Solution{
			Fault:       f,
			ConfigIdx:   -1,
			Sensitivity: poisonSF,
			Quarantined: true,
			Candidates:  append([]Candidate(nil), cands...),
		}
	} else if err != nil {
		return fmt.Errorf("core: fault %s: %w", f.ID(), err)
	}
	if err := s.crossCheckFailure(); err != nil {
		// Under a retry policy selection drops candidates whose
		// evaluation failed; a CrossCheck mismatch must fail the run.
		return fmt.Errorf("core: fault %s: %w", f.ID(), err)
	}
	if record != nil {
		record(sols[fi])
	}
	return nil
}

// Distribution tabulates how many faults of each kind selected each
// configuration — the paper's Table 2.
type Distribution struct {
	// Counts[configID][kind] is the number of faults of that kind whose
	// best test uses that configuration.
	Counts map[int]map[fault.Kind]int
	// Undetectable counts per kind.
	Undetectable map[fault.Kind]int
	// Unresolved counts undetermined and quarantined faults per kind —
	// runtime failures, not fault properties.
	Unresolved map[fault.Kind]int
}

// Tabulate builds the Table-2 distribution from generation results.
func (s *Session) Tabulate(sols []*Solution) Distribution {
	d := Distribution{
		Counts:       make(map[int]map[fault.Kind]int),
		Undetectable: make(map[fault.Kind]int),
		Unresolved:   make(map[fault.Kind]int),
	}
	for _, c := range s.configs {
		d.Counts[c.ID] = make(map[fault.Kind]int)
	}
	for _, sol := range sols {
		kind := sol.Fault.Kind()
		if sol.ConfigIdx < 0 {
			d.Unresolved[kind]++
			continue
		}
		if sol.Undetectable {
			d.Undetectable[kind]++
			continue
		}
		d.Counts[s.configs[sol.ConfigIdx].ID][kind]++
	}
	return d
}

// ConfigIDs returns the sorted configuration IDs present in a
// distribution.
func (d Distribution) ConfigIDs() []int {
	ids := make([]int, 0, len(d.Counts))
	for id := range d.Counts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
