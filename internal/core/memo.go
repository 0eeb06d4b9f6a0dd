package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/testcfg"
	"repro/internal/tolerance"
)

// The analysis memo (DESIGN.md §16) runs each distinct box-build and
// faulty analysis once per session. Keys are exact bits — the circuit,
// the configuration group sharing the simulation, and T — so a served
// entry is the value the skipped run would have computed, and eviction
// only costs a recomputation. The quantized nominal cache stays beside
// it unchanged: its key decides at which T a nominal response is
// computed, and with it the result bytes and the cache_hit/cache_miss
// journal events. Its misses do not ask the memo, because which exact T
// first fills a quantized key depends on the order faults are generated
// in. The memo stores no errors and never serves warm-start runs.

// memoEntries bounds the memo, in analyses across all shards. An entry
// holds a key of a few tens of bytes and one short return vector per
// group member, so a full memo stays in the low megabytes.
const memoEntries = 1 << 16

// errMemoMismatch marks a CrossCheck failure: an entry the memo served
// differs from a fresh simulation of the same analysis.
var errMemoMismatch = errors.New("core: analysis memo entry differs from a fresh simulation")

// analysisMemo is a session's memo of simulations.
type analysisMemo struct {
	cache *engine.Cache[[][]float64]
	// plant, set only by tests, rewrites every served entry, so the
	// CrossCheck path has a planted mismatch to catch.
	plant func([][]float64) [][]float64
}

func newAnalysisMemo() *analysisMemo {
	return &analysisMemo{cache: engine.NewCache[[][]float64](memoEntries, 0)}
}

// circuitID names the circuit an analysis runs on, exactly: the golden
// macro, a process corner of it, or a fault inserted into it at an
// impact. A fault ID identifies the defect's structure within a session
// (the checkpoint and the shard merge rely on the same), so ID and
// impact determine the faulty circuit.
type circuitID struct {
	kind   byte             // 'g' golden, 'c' corner, 'f' faulty
	corner tolerance.Corner // kind 'c'
	f      fault.Fault      // kind 'f', inserted at impact
	fid    string           // kind 'f': f.ID()
	impact float64          // kind 'f'
}

var goldenID = circuitID{kind: 'g'}

func cornerID(k tolerance.Corner) circuitID { return circuitID{kind: 'c', corner: k} }

func faultID(f fault.Fault, fid string, impact float64) circuitID {
	return circuitID{kind: 'f', f: f, fid: fid, impact: impact}
}

// build returns a fresh copy of the circuit id names (the golden macro
// itself: Config.Run clones it).
func (s *Session) build(id circuitID) (*circuit.Circuit, error) {
	switch id.kind {
	case 'c':
		return tolerance.Apply(s.golden, id.corner), nil
	case 'f':
		return id.f.WithImpact(id.impact).Insert(s.golden)
	}
	return s.golden, nil
}

// simulate runs the analysis of a group on a fresh copy of circuit id:
// the oracle CrossCheck compares memo hits and pooled runs with.
func (s *Session) simulate(id circuitID, cfgs []*testcfg.Config, T []float64) ([][]float64, error) {
	ckt, err := s.build(id)
	if err != nil {
		return nil, err
	}
	return testcfg.RunGroup(cfgs, ckt, T, s.simOpts)
}

// memoKey encodes an analysis as exact bits: the circuit (kind, a
// length-prefixed name, the IEEE-754 bits of its values), the group and
// the bits of T. A group's configurations share one parameter count, so
// equal keys mean equal analyses.
func memoKey(id circuitID, g int, T []float64) string {
	var buf [128]byte
	b := append(buf[:0], id.kind)
	bits := func(vs ...float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	name := func(n string) {
		b = binary.AppendUvarint(b, uint64(len(n)))
		b = append(b, n...)
	}
	switch id.kind {
	case 'c':
		name(id.corner.Name)
		bits(id.corner.KPScale, id.corner.VTShift, id.corner.RScale, id.corner.CScale)
	case 'f':
		name(id.fid)
		bits(id.impact)
	}
	b = binary.AppendUvarint(b, uint64(g))
	bits(T...)
	return string(b)
}

// groupRun produces the return values of every configuration of a group
// in one simulation.
type groupRun func(cfgs []*testcfg.Config) ([][]float64, error)

// analyze returns configuration ci's return values on circuit id at T.
// The simulation runs once per session for every configuration of ci's
// group; a later request for any of them on the same circuit at the
// same T is served from the memo (served = true) without simulating.
// run computes a miss (nil: a pooled evaluator of the golden macro or a
// corner, runPooled). Concurrent misses on one key simulate once. Errors
// are never stored or shared: a caller whose joined flight failed runs
// the analysis itself, exactly as without the memo. Under
// Config.CrossCheck every served entry is recomputed on a fresh circuit
// and compared bit for bit; a difference is returned as an error
// wrapping errMemoMismatch.
func (s *Session) analyze(id circuitID, ci int, T []float64, run groupRun) (vals []float64, served bool, err error) {
	g := s.groupOf[ci]
	cfgs := s.groups[g]
	if run == nil {
		run = func(cfgs []*testcfg.Config) ([][]float64, error) { return s.runPooled(id, g, cfgs, T) }
	}
	ran := false
	all, _, err := s.memo.cache.GetOrCompute(memoKey(id, g, T), func() ([][]float64, error) {
		ran = true
		return run(cfgs)
	})
	if err != nil && !ran {
		ran = true
		all, err = run(cfgs)
	}
	if err != nil {
		return nil, false, err
	}
	if !ran {
		if s.memo.plant != nil {
			all = s.memo.plant(all)
		}
		if s.cfg.CrossCheck {
			if err := s.verifyServed(id, ci, T, all); err != nil {
				return nil, false, err
			}
		}
	}
	return all[s.memberOf[ci]], !ran, nil
}

// verifyServed recomputes a served entry on a freshly built circuit and
// requires every group member's values to match bit for bit.
func (s *Session) verifyServed(id circuitID, ci int, T []float64, served [][]float64) error {
	if err := s.verify(id, s.groups[s.groupOf[ci]], T, served); err != nil {
		return s.latch(fmt.Errorf("%w: config #%d at %v: %w", errMemoMismatch, s.configs[ci].ID, T, err))
	}
	return nil
}

// verify recomputes the analysis of cfgs on a freshly built copy of
// circuit id and reports the first value of got whose bits differ.
func (s *Session) verify(id circuitID, cfgs []*testcfg.Config, T []float64, got [][]float64) error {
	fresh, err := s.simulate(id, cfgs, T)
	if err != nil {
		return err
	}
	return sameBits(cfgs, got, fresh)
}

// latch records the session's first CrossCheck failure and returns err.
// The optimizer turns evaluation errors into poisoned points, so
// generation re-reads the latch (crossCheckFailure) to fail the run.
func (s *Session) latch(err error) error {
	s.crossFailed.CompareAndSwap(nil, &err)
	return err
}

// crossCheckFailure returns the latched CrossCheck failure, or nil.
func (s *Session) crossCheckFailure() error {
	if p := s.crossFailed.Load(); p != nil {
		return *p
	}
	return nil
}

// sameBits reports the first return value whose bits differ.
func sameBits(cfgs []*testcfg.Config, got, want [][]float64) error {
	for m := range want {
		if len(got[m]) != len(want[m]) {
			return fmt.Errorf("config #%d: %d values served, %d simulated", cfgs[m].ID, len(got[m]), len(want[m]))
		}
		for i := range want[m] {
			if math.Float64bits(got[m][i]) != math.Float64bits(want[m][i]) {
				return fmt.Errorf("config #%d value %d: served %v, simulated %v", cfgs[m].ID, i, got[m][i], want[m][i])
			}
		}
	}
	return nil
}

// groupConfigs partitions the configurations into simulation groups:
// configurations that share an analysis (testcfg.SharesAnalysis) form
// one group in order of appearance; every other configuration is alone.
func groupConfigs(configs []*testcfg.Config) (groups [][]*testcfg.Config, group, member []int) {
	group = make([]int, len(configs))
	member = make([]int, len(configs))
	for ci, c := range configs {
		g := len(groups)
		for gi, cfgs := range groups {
			if testcfg.SharesAnalysis(cfgs[0], c) {
				g = gi
				break
			}
		}
		if g == len(groups) {
			groups = append(groups, nil)
		}
		group[ci], member[ci] = g, len(groups[g])
		groups[g] = append(groups[g], c)
	}
	return groups, group, member
}
