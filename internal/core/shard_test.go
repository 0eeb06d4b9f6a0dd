package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/macros"
	"repro/internal/testcfg"
)

// TestShardMergeBitIdentical is the distributed-identity property at
// the core level: generating shards on independent sessions and merging
// their records — in an order unlike the dictionary's — must rebuild
// exactly the records a single local run produces.
func TestShardMergeBitIdentical(t *testing.T) {
	faults := fastFaultMix()

	localSols, err := fastSession(t, false).GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}

	coord := fastSession(t, false)
	merge, err := coord.OpenMerge(faults)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(merge.Pending()); got != len(faults) {
		t.Fatalf("Pending() = %d faults, want %d", got, len(faults))
	}

	// Two shards on fresh worker sessions, merged back-to-front.
	shards := [][]int{{2, 3}, {0, 1}}
	for si, idxs := range shards {
		worker := fastSession(t, false)
		var shardFaults []string
		for _, fi := range idxs {
			shardFaults = append(shardFaults, faults[fi].ID())
		}
		fs, err := FaultsByID(faults, shardFaults)
		if err != nil {
			t.Fatal(err)
		}
		sols, err := worker.GenerateShardContext(context.Background(), "t/s0", fs)
		if err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		for _, sol := range sols {
			if err := merge.Record(RecordOf(sol)); err != nil {
				t.Fatalf("shard %d: record: %v", si, err)
			}
		}
	}
	// A duplicate record is ignored, an unknown fault rejected.
	if err := merge.Record(RecordOf(localSols[0])); err != nil {
		t.Fatalf("duplicate record rejected: %v", err)
	}
	if err := merge.Record(SolutionRecord{FaultID: "no-such-fault"}); err == nil {
		t.Fatal("record for unknown fault accepted")
	}

	merged, err := merge.Solutions()
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		got, want := RecordOf(merged[i]), RecordOf(localSols[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fault %s: merged record differs:\n got %+v\nwant %+v", faults[i].ID(), got, want)
		}
	}
}

// TestMergeIncomplete pins the guard: Solutions before every fault has
// a record is an error, Remaining counts down as records merge.
func TestMergeIncomplete(t *testing.T) {
	faults := fastFaultMix()
	s := fastSession(t, false)
	merge, err := s.OpenMerge(faults)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merge.Solutions(); err == nil {
		t.Fatal("Solutions() on an empty merge succeeded")
	}
	if err := merge.Record(SolutionRecord{FaultID: faults[0].ID(), ConfigIdx: -1, Undetermined: true}); err != nil {
		t.Fatal(err)
	}
	if got := merge.Remaining(); got != len(faults)-1 {
		t.Fatalf("Remaining() = %d, want %d", got, len(faults)-1)
	}
}

// TestMergeCheckpointResume pins checkpoint-aware resharding: a merge
// run flushed mid-way resumes on a fresh session with only the
// remainder pending — and the resumed faults restore bit-identically.
func TestMergeCheckpointResume(t *testing.T) {
	faults := fastFaultMix()
	path := filepath.Join(t.TempDir(), "merge.ckpt")

	mk := func(resume bool) *Session {
		t.Helper()
		cfg := DefaultConfig()
		cfg.BoxMode = BoxSeed
		cfg.Workers = 4
		cfg.CheckpointPath = path
		cfg.Resume = resume
		s, err := NewSession(macros.IVConverter(), testcfg.IVConfigs()[:2], cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	localSols, err := fastSession(t, false).GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}

	first, err := mk(false).OpenMerge(faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range []int{0, 2} {
		if err := first.Record(RecordOf(localSols[fi])); err != nil {
			t.Fatal(err)
		}
	}
	first.Flush()

	second, err := mk(true).OpenMerge(faults)
	if err != nil {
		t.Fatal(err)
	}
	pending := second.Pending()
	if len(pending) != 2 {
		t.Fatalf("resumed Pending() = %d faults, want 2", len(pending))
	}
	if pending[0].ID() != faults[1].ID() || pending[1].ID() != faults[3].ID() {
		t.Fatalf("resumed pending = %s, %s", pending[0].ID(), pending[1].ID())
	}
	for _, fi := range []int{1, 3} {
		if err := second.Record(RecordOf(localSols[fi])); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := second.Solutions()
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if !reflect.DeepEqual(RecordOf(merged[i]), RecordOf(localSols[i])) {
			t.Fatalf("fault %s: resumed merge differs", faults[i].ID())
		}
	}
}

// TestFaultsByID pins dictionary-order preservation and unknown-ID
// rejection.
func TestFaultsByID(t *testing.T) {
	faults := fastFaultMix()
	got, err := FaultsByID(faults, []string{faults[3].ID(), faults[1].ID()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID() != faults[1].ID() || got[1].ID() != faults[3].ID() {
		t.Fatalf("FaultsByID order = %v", got)
	}
	if _, err := FaultsByID(faults, []string{"bogus"}); err == nil {
		t.Fatal("unknown fault id accepted")
	}
}

// TestGenerateShardLeavesCheckpoint: a shard run never opens the
// session's checkpoint. The file a merge run wrote stays byte for byte
// across GenerateShardContext, and with Resume set the shard still
// runs instead of failing on the merge's fingerprint (a shard's fault
// set never matches the merge's).
func TestGenerateShardLeavesCheckpoint(t *testing.T) {
	faults := fastFaultMix()
	path := filepath.Join(t.TempDir(), "merge.ckpt")
	mk := func(resume bool) *Session {
		t.Helper()
		cfg := DefaultConfig()
		cfg.BoxMode = BoxSeed
		cfg.Workers = 4
		cfg.CheckpointPath = path
		cfg.Resume = resume
		s, err := NewSession(macros.IVConverter(), testcfg.IVConfigs()[:2], cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := mk(false)
	merge, err := s.OpenMerge(faults)
	if err != nil {
		t.Fatal(err)
	}
	if err := merge.Record(SolutionRecord{FaultID: faults[0].ID(), ConfigIdx: -1, Undetermined: true}); err != nil {
		t.Fatal(err)
	}
	merge.Flush()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []*Session{s, mk(true)} {
		sols, err := s.GenerateShardContext(context.Background(), "t/s1", faults[2:])
		if err != nil {
			t.Fatalf("resume %v: %v", s.cfg.Resume, err)
		}
		if len(sols) != 2 || sols[0] == nil || sols[1] == nil {
			t.Fatalf("resume %v: %d solutions, want 2", s.cfg.Resume, len(sols))
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resume %v: the shard rewrote the session checkpoint:\n got %s\nwant %s", s.cfg.Resume, got, want)
		}
	}
}
