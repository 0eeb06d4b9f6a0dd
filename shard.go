package repro

import (
	"context"

	"repro/api"
	"repro/internal/core"
)

// This file bridges the facade to the distributed-execution seam of the
// generation core: shard-scoped generation for workers, the merge run
// for coordinators, and the conversions between the engine's checkpoint
// records and their api wire form. Package api stays a stdlib-only
// leaf, so these conversions live here — the same place the other
// wire bridges (WireResult, WireMetrics) live.

// SolutionRecord is the checkpoint serialization of one completed
// fault: exactly the fields coverage, compaction, and reporting
// consume, so a solution rebuilt from its record is bit-identical to
// the computed one. It is both the checkpoint payload and — as
// api.ShardSolution — the shard-result wire payload.
type SolutionRecord = core.SolutionRecord

// MergeRun accumulates per-fault records of a distributed run and
// rebuilds the dictionary-ordered solutions a local run would have
// produced, sharing the session's checkpoint machinery (see
// System.OpenMerge).
type MergeRun = core.MergeRun

// PhaseGenerate is the progress-phase label of the generation step —
// exported so a coordinator can aggregate worker progress under the
// same phase name a local run reports.
const PhaseGenerate = core.PhaseGenerate

// GenerateShardContext generates tests for one shard of a distributed
// run: GenerateAllContext's schedule over the given faults, wrapped in
// a shard-tagged journal span. It never opens the system's checkpoint.
func (s *System) GenerateShardContext(ctx context.Context, shardID string, faults []Fault) ([]*Solution, error) {
	return s.session.GenerateShardContext(ctx, shardID, faults)
}

// OpenMerge starts the coordinator side of a distributed run over the
// given faults. With WithCheckpoint applied to the system, merged
// records persist with the usual debounce/atomic-rename discipline and
// a resume pre-fills already-solved faults, so a restarted coordinator
// reshards only the remainder.
func (s *System) OpenMerge(faults []Fault) (*MergeRun, error) {
	return s.session.OpenMerge(faults)
}

// FaultsByID resolves fault IDs against a dictionary slice, preserving
// dictionary order. Unknown IDs are an error.
func FaultsByID(faults []Fault, ids []string) ([]Fault, error) {
	return core.FaultsByID(faults, ids)
}

// WireShardSolutions serializes completed shard solutions into their
// wire form, in the order given (workers pass dictionary order).
func WireShardSolutions(sols []*Solution) []api.ShardSolution {
	out := make([]api.ShardSolution, 0, len(sols))
	for _, sol := range sols {
		if sol == nil {
			continue
		}
		rec := core.RecordOf(sol)
		out = append(out, api.ShardSolution{
			FaultID:        rec.FaultID,
			ConfigIdx:      rec.ConfigIdx,
			Params:         rec.Params,
			Sensitivity:    rec.Sensitivity,
			CriticalImpact: rec.CriticalImpact,
			Undetectable:   rec.Undetectable,
			Undetermined:   rec.Undetermined,
			Quarantined:    rec.Quarantined,
			Evals:          rec.Evals,
			ImpactIters:    rec.ImpactIters,
			Attempts:       rec.Attempts,
		})
	}
	return out
}

// ShardSolutionRecord converts a wire shard solution back into the
// engine's checkpoint record — the inbound half of WireShardSolutions.
func ShardSolutionRecord(s api.ShardSolution) SolutionRecord {
	return SolutionRecord{
		FaultID:        s.FaultID,
		ConfigIdx:      s.ConfigIdx,
		Params:         s.Params,
		Sensitivity:    s.Sensitivity,
		CriticalImpact: s.CriticalImpact,
		Undetectable:   s.Undetectable,
		Undetermined:   s.Undetermined,
		Quarantined:    s.Quarantined,
		Evals:          s.Evals,
		ImpactIters:    s.ImpactIters,
		Attempts:       s.Attempts,
	}
}
