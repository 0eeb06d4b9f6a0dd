package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/testcfg"
)

// isolationRun generates tests for two hard DC faults on a one-worker
// session over configurations #1/#2 with seed boxes. Both faults drive
// some faulty operating points past the plain Newton strategy, so the
// run counts FaultyFailures unless a recovery ladder rescues them.
func isolationRun(t *testing.T, cfg Config) ([]*Solution, Stats) {
	t.Helper()
	golden := macros.IVConverter()
	dict := fault.Dictionary(golden, 10e3, 2e3)
	faults := []fault.Fault{fault.ByID(dict, "bridge:Nbias-Vmid"), fault.ByID(dict, "bridge:0-Vdd")}
	s, err := NewSession(golden, testcfg.IVConfigs()[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := s.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	return sols, s.Stats()
}

// TestRetrySessionLeavesLaterSessionsAlone: building a session with a
// retry policy gives only that session the recovery ladder. A plain
// session run after it produces the same solutions and simulation
// counts as one run before it.
func TestRetrySessionLeavesLaterSessionsAlone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	cfg.Workers = 1
	before, beforeStats := isolationRun(t, cfg)
	if beforeStats.FaultyFailures == 0 {
		t.Fatal("no faulty run failed: the faults no longer exercise the recovery ladder")
	}

	retry := cfg
	policy := DefaultRetryPolicy()
	retry.Retry = &policy
	if _, err := NewSession(macros.IVConverter(), testcfg.IVConfigs()[:2], retry); err != nil {
		t.Fatal(err)
	}

	after, afterStats := isolationRun(t, cfg)
	if afterStats != beforeStats {
		t.Errorf("plain session stats after a retry session %+v, before %+v", afterStats, beforeStats)
	}
	for i := range before {
		if !reflect.DeepEqual(after[i], before[i]) {
			t.Errorf("%s: test #%d %v (S_f %g) after a retry session, #%d %v (S_f %g) before",
				before[i].Fault.ID(), after[i].ConfigIdx+1, after[i].Params, after[i].Sensitivity,
				before[i].ConfigIdx+1, before[i].Params, before[i].Sensitivity)
		}
	}
}

// TestTracedJournalStaysSealed: once a traced session's run has ended,
// no later session in the process writes into its journal, so the
// journal still validates after an untraced session runs.
func TestTracedJournalStaysSealed(t *testing.T) {
	var buf bytes.Buffer
	s, tr, j := tracedSession(t, &buf)
	if _, err := s.Generate(fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3)); err != nil {
		t.Fatal(err)
	}
	tr.Finish(nil, obs.Any("metrics", s.Metrics()))

	if _, err := dcSession(t).Generate(fault.NewBridge(macros.NodeVref, macros.NodeIin, 10e3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := obs.Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal invalid after an untraced session ran: %v", err)
	}
	if st.Terminal != obs.TypeRunEnd {
		t.Errorf("terminal = %s, want run_end", st.Terminal)
	}
}
