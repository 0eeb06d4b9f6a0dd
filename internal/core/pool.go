package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/testcfg"
)

// The evaluator pool (DESIGN.md §17) keeps the retained evaluators of a
// session's nominal and box-build analyses. A nominal-cache miss or a
// memo miss on the golden macro or a process corner takes an evaluator
// for its (circuit, simulation group) from the pool, or prepares one,
// and runs it cold. A cold run is bit-identical to a fresh engine's
// (DESIGN.md §12), so which pooled engine serves an analysis changes
// only kernel counters, never a result. An evaluator goes back only
// after a run that returned without error: one whose run failed or
// panicked is dropped with whatever state the failure left. The pool
// holds at most one evaluator per concurrent user of a key. Corner
// evaluators are released once the boxes are built, golden ones with
// the session.

// errPoolMismatch marks a CrossCheck failure: a pooled run differs from
// a fresh simulation of the same analysis.
var errPoolMismatch = errors.New("core: pooled evaluator run differs from a fresh simulation")

// poolKey names the evaluators that can serve an analysis.
type poolKey struct {
	id circuitID // the golden macro or a corner of it
	g  int       // simulation group
}

// evalPool is a session's free list of retained evaluators.
type evalPool struct {
	mu   sync.Mutex
	free map[poolKey][]*testcfg.Evaluator
	// plant, set only by tests, rewrites every pooled run's values, so
	// the CrossCheck path has a planted mismatch to catch.
	plant func([][]float64) [][]float64
}

func newEvalPool() *evalPool {
	return &evalPool{free: make(map[poolKey][]*testcfg.Evaluator)}
}

// get takes an evaluator for k off the free list, or returns nil.
func (p *evalPool) get(k poolKey) *testcfg.Evaluator {
	p.mu.Lock()
	var ev *testcfg.Evaluator
	if free := p.free[k]; len(free) > 0 {
		ev = free[len(free)-1]
		p.free[k] = free[:len(free)-1]
	}
	p.mu.Unlock()
	return ev
}

// put returns an evaluator to the free list.
func (p *evalPool) put(k poolKey, ev *testcfg.Evaluator) {
	p.mu.Lock()
	p.free[k] = append(p.free[k], ev)
	p.mu.Unlock()
}

// dropCorners releases the corner evaluators: only the box build
// simulates corners, so they would serve nothing after it.
func (p *evalPool) dropCorners() {
	p.mu.Lock()
	for k := range p.free {
		if k.id.kind == 'c' {
			delete(p.free, k)
		}
	}
	p.mu.Unlock()
}

// runPooled runs the analysis of group g for cfgs (members of g) on
// circuit id, the golden macro or a corner of it, on a pooled evaluator.
// Configurations without a prepared evaluator run on a fresh copy of the
// circuit instead. Under Config.CrossCheck every pooled run is
// recomputed on a freshly built circuit and compared bit for bit; a
// difference is returned as an error wrapping errPoolMismatch.
func (s *Session) runPooled(id circuitID, g int, cfgs []*testcfg.Config, T []float64) ([][]float64, error) {
	if !cfgs[0].CanPrepare() {
		return s.simulate(id, cfgs, T)
	}
	k := poolKey{id: id, g: g}
	ev := s.pool.get(k)
	if ev == nil {
		ckt, err := s.build(id)
		if err != nil {
			return nil, err
		}
		if ev, err = s.groups[g][0].Prepare(ckt, s.simOpts); err != nil {
			return nil, err
		}
	}
	all, err := ev.RunGroup(cfgs, T)
	if err != nil {
		return nil, err
	}
	s.pool.put(k, ev)
	if s.pool.plant != nil {
		all = s.pool.plant(all)
	}
	if s.cfg.CrossCheck {
		if err := s.verify(id, cfgs, T, all); err != nil {
			return nil, s.latch(fmt.Errorf("%w: config #%d at %v: %w", errPoolMismatch, cfgs[0].ID, T, err))
		}
	}
	return all, nil
}
