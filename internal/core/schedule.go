package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
)

// The paper's motivation for compaction is production test cost: "the
// test set size is proportional to the number of tested faults which is
// undesirable". This file models that cost explicitly — every test
// configuration carries an application-time estimate — and orders a test
// set so that high-yield tests run first, which minimizes the expected
// time to first detection on faulty parts.

// ApplicationTime estimates how long one application of configuration
// t.ConfigIdx takes on ATE: the stimulus/measure window its analysis
// reports (testcfg.Config.Window) plus a fixed setup overhead per test.
// DC measurements settle in ~1 ms; a sine capture needs its warm-up
// plus measured periods at the test's frequency; a step response takes
// its 7.5 µs window.
func (s *Session) ApplicationTime(t Test) time.Duration {
	const setup = 500 * time.Microsecond
	return setup + s.configs[t.ConfigIdx].Window(t.Params)
}

// SetTime sums the application time over a test set.
func (s *Session) SetTime(tests []Test) time.Duration {
	var total time.Duration
	for _, t := range tests {
		total += s.ApplicationTime(t)
	}
	return total
}

// ScheduleEntry is one test of an ordered schedule with its yield
// statistics against the fault dictionary.
type ScheduleEntry struct {
	Test
	// NewDetections is the number of dictionary faults this test is the
	// first to detect under the schedule order.
	NewDetections int
	// Time is the estimated application time.
	Time time.Duration
}

// Schedule orders a test set greedily by marginal fault yield per unit
// ATE time. It is ScheduleContext with context.Background().
func (s *Session) Schedule(tests []Test, faults []fault.Fault) ([]ScheduleEntry, []string, error) {
	return s.ScheduleContext(context.Background(), tests, faults)
}

// ScheduleContext orders a test set greedily by marginal fault yield per
// unit ATE time: at each step the test covering the most not-yet-detected
// faults per second goes next. Tests that add no coverage are appended
// at the end (they still consume tester time but catch nothing new).
// It also returns the fault IDs no test in the set detects. The
// underlying (test, fault) detection matrix is filled on the engine's
// work-stealing pool; cancellation of ctx aborts the run promptly with
// an error wrapping ErrCanceled.
func (s *Session) ScheduleContext(ctx context.Context, tests []Test, faults []fault.Fault) ([]ScheduleEntry, []string, error) {
	// Detection matrix, one pool task per (test, fault) pair.
	detects := make([][]bool, len(tests))
	for ti := range tests {
		detects[ti] = make([]bool, len(faults))
	}
	nf := len(faults)
	err := s.eng.ForEach(ctx, len(tests)*nf, func(ctx context.Context, k int) error {
		defer s.eng.Time(PhaseSchedule)()
		ti, fi := k/nf, k%nf
		t, f := tests[ti], faults[fi]
		fd := f.WithImpact(f.InitialImpact())
		sf, err := s.Sensitivity(t.ConfigIdx, fd, t.Params)
		if err != nil {
			return fmt.Errorf("core: schedule matrix for %s: %w", f.ID(), err)
		}
		detects[ti][fi] = sf < 0
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	covered := make([]bool, len(faults))
	used := make([]bool, len(tests))
	var order []ScheduleEntry
	for range tests {
		best, bestRate, bestNew := -1, -1.0, 0
		for ti := range tests {
			if used[ti] {
				continue
			}
			n := 0
			for fi := range faults {
				if detects[ti][fi] && !covered[fi] {
					n++
				}
			}
			rate := float64(n) / s.ApplicationTime(tests[ti]).Seconds()
			if rate > bestRate {
				best, bestRate, bestNew = ti, rate, n
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		for fi := range faults {
			if detects[best][fi] {
				covered[fi] = true
			}
		}
		order = append(order, ScheduleEntry{
			Test:          tests[best],
			NewDetections: bestNew,
			Time:          s.ApplicationTime(tests[best]),
		})
	}
	var undetected []string
	for fi, ok := range covered {
		if !ok {
			undetected = append(undetected, faults[fi].ID())
		}
	}
	return order, undetected, nil
}

// Prune drops the tests that add no marginal detection at the faults'
// dictionary impacts, using the greedy schedule as the keep order. The
// result covers exactly the same faults with (usually far) fewer tests.
//
// Pruning trades away the compaction algorithm's sensitivity guarantee:
// a kept test detects the reassigned faults, but not necessarily within
// the δ budget of their per-fault optima. Use it when raw dictionary
// coverage per tester-second is the objective. It is PruneContext with
// context.Background().
func (s *Session) Prune(tests []Test, faults []fault.Fault) ([]Test, error) {
	return s.PruneContext(context.Background(), tests, faults)
}

// PruneContext is Prune honoring ctx during the schedule's detection
// matrix fill.
func (s *Session) PruneContext(ctx context.Context, tests []Test, faults []fault.Fault) ([]Test, error) {
	order, _, err := s.ScheduleContext(ctx, tests, faults)
	if err != nil {
		return nil, err
	}
	var kept []Test
	for _, e := range order {
		if e.NewDetections > 0 {
			kept = append(kept, e.Test)
		}
	}
	return kept, nil
}
