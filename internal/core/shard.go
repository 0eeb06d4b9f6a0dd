package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

// This file is the generation core's distributed seam. A coordinator
// partitions the fault dictionary, ships each shard (as fault IDs plus
// the originating request) to a worker, and folds the workers' records
// back into one run through a MergeRun. A local GenerateAllContext is a
// MergeRun too, filled by the session's own schedule, so both share
// one checkpoint and resume path — which is what makes a distributed
// run byte-identical to a local one, and a coordinator restart resume
// from whatever shards had already merged.

// GenerateShardContext generates tests for one shard of a distributed
// run: the fused schedule of GenerateAllContext over the given faults,
// wrapped in a "shard" span so the worker's journal attributes its
// work. It never opens the session's checkpoint — durability of a
// distributed run lives in the coordinator's merge checkpoint, not in
// its shards.
func (s *Session) GenerateShardContext(ctx context.Context, shardID string, faults []fault.Fault) ([]*Solution, error) {
	ctx, sp := s.tr.Start(ctx, "shard",
		obs.String("shard", shardID), obs.Int("faults", len(faults)))
	sols, err := s.generate(ctx, faults, nil)
	sp.End(obs.Bool("ok", err == nil))
	return sols, err
}

// RecordOf returns the checkpoint-record serialization of a completed
// solution — the minimal field set proven sufficient to rebuild the
// solution bit-identically. Shard results travel the wire in exactly
// this shape.
func RecordOf(sol *Solution) SolutionRecord { return recordOf(sol) }

// Restore rebuilds a Solution from its record for the given fault. The
// solution is marked Resumed (restored rather than computed);
// candidates and the impact trace are absent, as after a checkpoint
// resume.
func (r SolutionRecord) Restore(f fault.Fault) *Solution { return r.solution(f) }

// FaultsByID resolves fault IDs against a dictionary slice, preserving
// the dictionary's order (not the order of ids). Unknown IDs are an
// error — a shard request referencing faults this session does not have
// means coordinator and worker disagree about the macro.
func FaultsByID(faults []fault.Fault, ids []string) ([]fault.Fault, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := make([]fault.Fault, 0, len(ids))
	for _, f := range faults {
		if want[f.ID()] {
			out = append(out, f)
			delete(want, f.ID())
		}
	}
	if len(want) != 0 {
		for id := range want {
			return nil, fmt.Errorf("core: unknown fault id %q in shard", id)
		}
	}
	return out, nil
}

// MergeRun accumulates the per-fault solutions of one generation run —
// computed by the session's own schedule (GenerateAllContext) or
// delivered as shard records — and rebuilds the dictionary-ordered
// solution slice. It owns the session's checkpoint: with
// Config.CheckpointPath set, solutions persist as they arrive (debounced
// atomic rename), and with Config.Resume a compatible checkpoint
// pre-fills already-solved faults — so a resumed run computes, and a
// restarted coordinator reshards, only the remainder. The checkpoint
// fingerprint ignores worker count and sharding entirely, so a
// single-node checkpoint resumes into a distributed run and vice versa.
//
// MergeRun is safe for concurrent use; duplicate records for a fault
// are ignored (results are deterministic, so the first merged record is
// as good as any).
type MergeRun struct {
	faults []fault.Fault
	index  map[string]int
	cs     *ckptState

	mu   sync.Mutex
	sols []*Solution
	done int
}

// OpenMerge starts a generation run over the given fault dictionary
// slice: the coordinator side of a distributed run, or the bookkeeping
// of a local one.
func (s *Session) OpenMerge(faults []fault.Fault) (*MergeRun, error) {
	cs, resumed, err := s.openCheckpoint(faults)
	if err != nil {
		return nil, err
	}
	m := &MergeRun{
		faults: faults,
		index:  make(map[string]int, len(faults)),
		cs:     cs,
		sols:   make([]*Solution, len(faults)),
	}
	for fi, f := range faults {
		m.index[f.ID()] = fi
		if sol, ok := resumed[f.ID()]; ok {
			m.sols[fi] = sol
			m.done++
		}
	}
	if m.done > 0 {
		s.prog.AddResumed(m.done)
		s.tr.Emit("resume", obs.Int("skipped", m.done), obs.Int("total", len(faults)))
	}
	return m, nil
}

// Pending returns the faults not yet solved, in dictionary order — the
// set the coordinator partitions into shards.
func (m *MergeRun) Pending() []fault.Fault {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []fault.Fault
	for fi, f := range m.faults {
		if m.sols[fi] == nil {
			out = append(out, f)
		}
	}
	return out
}

// Remaining returns the number of faults still unsolved.
func (m *MergeRun) Remaining() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.faults) - m.done
}

// Record folds one fault's wire record into the run and feeds the
// debounced checkpoint. Records for faults outside the dictionary are
// an error; records for already-solved faults are ignored.
func (m *MergeRun) Record(rec SolutionRecord) error {
	fi, ok := m.index[rec.FaultID]
	if !ok {
		return fmt.Errorf("core: merge: record for unknown fault %q", rec.FaultID)
	}
	m.add(rec.solution(m.faults[fi]))
	return nil
}

// add folds one fault's solution into the run and feeds the debounced
// checkpoint, unless the fault is solved already.
func (m *MergeRun) add(sol *Solution) {
	fi := m.index[sol.Fault.ID()]
	m.mu.Lock()
	if m.sols[fi] != nil {
		m.mu.Unlock()
		return
	}
	m.sols[fi] = sol
	m.done++
	m.mu.Unlock()
	if m.cs != nil {
		m.cs.record(sol)
	}
}

// Solutions returns the complete dictionary-ordered solutions and
// flushes the checkpoint. It is an error to call before every fault has
// a record.
func (m *MergeRun) Solutions() ([]*Solution, error) {
	m.mu.Lock()
	if m.done != len(m.faults) {
		n := len(m.faults) - m.done
		m.mu.Unlock()
		return nil, fmt.Errorf("core: merge incomplete: %d faults unsolved", n)
	}
	sols := m.sols
	m.mu.Unlock()
	if m.cs != nil {
		if err := m.cs.flush(); err != nil {
			return sols, fmt.Errorf("core: final checkpoint: %w", err)
		}
	}
	return sols, nil
}

// Flush best-effort persists the merge checkpoint — the abort-path
// twin of Solutions, so a canceled or failed run still resumes from
// its completed faults.
func (m *MergeRun) Flush() {
	if m.cs != nil {
		_ = m.cs.flush() // the abort error takes precedence; flush errors are journaled
	}
}
