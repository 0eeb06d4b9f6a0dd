package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/macros"
)

func TestStatsCountSimulations(t *testing.T) {
	s := dcSession(t)
	before := s.Stats()
	T := []float64{20e-6}
	f := fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3)
	if _, err := s.Sensitivity(0, f, T); err != nil {
		t.Fatal(err)
	}
	mid := s.Stats()
	if mid.FaultyRuns != before.FaultyRuns+1 {
		t.Errorf("faulty runs %d -> %d, want +1", before.FaultyRuns, mid.FaultyRuns)
	}
	if mid.NominalRuns != before.NominalRuns+1 {
		t.Errorf("nominal runs %d -> %d, want +1", before.NominalRuns, mid.NominalRuns)
	}
	if mid.MemoHits != before.MemoHits {
		t.Errorf("memo hits %d -> %d on fresh analyses", before.MemoHits, mid.MemoHits)
	}
	// Repeat at the same parameters: the nominal response comes from the
	// nominal cache, the faulty one from the analysis memo.
	if _, err := s.Sensitivity(0, f, T); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.CacheHits != mid.CacheHits+1 {
		t.Errorf("cache hits %d -> %d, want +1", mid.CacheHits, after.CacheHits)
	}
	if after.NominalRuns != mid.NominalRuns {
		t.Error("cached nominal still counted as a run")
	}
	if after.FaultyRuns != mid.FaultyRuns || after.MemoHits != mid.MemoHits+1 {
		t.Errorf("repeated faulty analysis: runs %d -> %d, memo hits %d -> %d; want a memo hit",
			mid.FaultyRuns, after.FaultyRuns, mid.MemoHits, after.MemoHits)
	}
	// Configuration #2 reads the faulty operating point #1 simulated, a
	// memo hit. Its nominal response is a nominal-cache miss, and those
	// simulate without asking the memo.
	if _, err := s.Sensitivity(1, f, T); err != nil {
		t.Fatal(err)
	}
	last := s.Stats()
	if last.NominalRuns != after.NominalRuns+1 || last.FaultyRuns != after.FaultyRuns ||
		last.MemoHits != after.MemoHits+1 {
		t.Errorf("config #2 on #1's operating point: nominal %d -> %d, faulty %d -> %d, memo hits %d -> %d; want +1, +0, +1",
			after.NominalRuns, last.NominalRuns, after.FaultyRuns, last.FaultyRuns, after.MemoHits, last.MemoHits)
	}
}

func TestStatsCountFailures(t *testing.T) {
	s := dcSession(t)
	// Short the two ideal voltage sources together at 1 µΩ: the node
	// voltages stay pinned (so the DC-output configuration is blind), but
	// megaamps circulate through the supply — config #2 must either
	// detect a gigantic deviation or fail to converge; both paths count
	// as detection and the counters must stay coherent.
	f := fault.NewBridge(macros.NodeVdd, macros.NodeVref, 1e-6)
	sf, err := s.Sensitivity(1, f, []float64{20e-6})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// Either it simulated (huge deviation, S_f << 0) or it failed and was
	// reported as the sentinel; both count as detected, and the counters
	// must be coherent.
	if sf >= 0 {
		t.Errorf("supply-to-reference short undetected: S_f = %g", sf)
	}
	if st.FaultyFailures > st.FaultyRuns {
		t.Error("failure counter exceeds run counter")
	}
}
