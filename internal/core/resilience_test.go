package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/testcfg"
)

// The chaos tests drive the real generation pipeline with closed-form
// test configurations: the runner computes its response analytically
// from the inserted bridge device instead of simulating, so a full
// GenerateAll run over the IV-converter macro costs microseconds and
// failure injection (panics, guaranteed stalls) is exact.

// chaosMeter returns a runner whose response is 1+x nominally, plus a
// deviation proportional to the conductance of any inserted bridge
// fault — so impact weakening shrinks the deviation exactly like a real
// sensitivity, and the impact loop converges to a critical level.
func chaosMeter(gain float64, boom func(*circuit.Circuit)) testcfg.Runner {
	return func(ckt *circuit.Circuit, T []float64) ([]float64, error) {
		if boom != nil {
			boom(ckt)
		}
		v := 1.0 + T[0]
		for _, name := range []string{"FB_Iin_Vout", "FB_Nmir_Vout"} {
			if r, ok := ckt.Device(name).(*device.Resistor); ok {
				v += gain * (0.2 + T[0]) * 1e3 / r.R
			}
		}
		return []float64{v}, nil
	}
}

// chaosConfigs builds two custom configurations; boom (may be nil) is
// invoked by the second one on every run, before measuring.
func chaosConfigs(boom func(*circuit.Circuit)) []*testcfg.Config {
	params := []testcfg.Param{{Name: "x", Unit: "", Lo: 0, Hi: 1, Seed: 0.5}}
	returns := []testcfg.Return{{Name: "v", Unit: "V", Accuracy: 1e-3}}
	return []*testcfg.Config{
		testcfg.NewCustom(101, "chaos-meter", params, returns, chaosMeter(1, nil)),
		testcfg.NewCustom(102, "chaos-victim", params, returns, chaosMeter(0.5, boom)),
	}
}

func chaosFaults() []fault.Fault {
	return []fault.Fault{
		fault.NewBridge(macros.NodeIin, macros.NodeVout, 1e3),
		fault.NewBridge(macros.NodeNmir, macros.NodeVout, 1e3),
	}
}

func chaosSession(t *testing.T, cfgs []*testcfg.Config, mod func(*Config)) *Session {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	cfg.Workers = 4
	if mod != nil {
		mod(&cfg)
	}
	s, err := NewSession(macros.IVConverter(), cfgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPanicQuarantinesOnlyThatPair injects a device-model panic that
// fires only when one specific fault is inserted under one specific
// configuration: exactly that fault×config pair must be quarantined,
// the fault must still be detected through the surviving configuration,
// and the sibling fault must be untouched.
func TestPanicQuarantinesOnlyThatPair(t *testing.T) {
	boom := func(ckt *circuit.Circuit) {
		if ckt.Device("FB_Iin_Vout") != nil {
			panic("chaos: injected device-model panic")
		}
	}
	var buf bytes.Buffer
	tr := obs.New(obs.NewJournal(&buf))
	s := chaosSession(t, chaosConfigs(boom), func(c *Config) { c.Tracer = tr })
	sols, err := s.GenerateAll(chaosFaults())
	if err != nil {
		t.Fatalf("GenerateAll with injected panic aborted: %v", err)
	}
	tr.Finish(nil)
	for i, sol := range sols {
		if sol == nil {
			t.Fatalf("solution %d missing", i)
		}
	}

	q := s.Quarantined()
	if len(q) != 1 {
		t.Fatalf("quarantine records = %+v, want exactly one", q)
	}
	rec := q[0]
	if rec.FaultID != "bridge:Iin-Vout" || rec.ConfigID != 102 || rec.Phase != PhaseOptimize {
		t.Errorf("quarantined %s under config %d in phase %s, want bridge:Iin-Vout under 102 in %s",
			rec.FaultID, rec.ConfigID, rec.Phase, PhaseOptimize)
	}
	if !strings.Contains(rec.Value, "injected device-model panic") {
		t.Errorf("panic value %q lost the original message", rec.Value)
	}
	if rec.Stack == "" {
		t.Error("quarantine record has no stack trace")
	}

	// The victim fault still resolves through the surviving config.
	if v := sols[0].Verdict(); v != VerdictDetected {
		t.Errorf("victim fault verdict = %s, want %s", v, VerdictDetected)
	}
	if id := sols[0].ConfigID(s); id != 101 {
		t.Errorf("victim fault won config %d, want the surviving 101", id)
	}
	nq := 0
	for _, c := range sols[0].Candidates {
		if c.Quarantined {
			nq++
		}
	}
	if nq != 1 {
		t.Errorf("victim fault has %d quarantined candidates, want 1", nq)
	}
	// The sibling fault is untouched.
	if v := sols[1].Verdict(); v != VerdictDetected {
		t.Errorf("sibling fault verdict = %s, want %s", v, VerdictDetected)
	}
	for _, c := range sols[1].Candidates {
		if c.Quarantined {
			t.Error("sibling fault has a quarantined candidate")
		}
	}

	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}
	if m := s.Metrics(); m.TaskPanics < 1 {
		t.Errorf("Metrics().TaskPanics = %d, want >= 1", m.TaskPanics)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"quarantine"`)) {
		t.Error("journal has no quarantine event")
	}
}

// TestAllConfigsPanicQuarantinedVerdict panics every configuration for
// one fault: no surviving candidate exists, so the fault must end as
// VerdictQuarantined with ConfigIdx -1, excluded from tests and
// tabulated as unresolved — while the run still completes.
func TestAllConfigsPanicQuarantinedVerdict(t *testing.T) {
	boom := func(ckt *circuit.Circuit) {
		if ckt.Device("FB_Iin_Vout") != nil {
			panic("chaos: total loss")
		}
	}
	params := []testcfg.Param{{Name: "x", Unit: "", Lo: 0, Hi: 1, Seed: 0.5}}
	returns := []testcfg.Return{{Name: "v", Unit: "V", Accuracy: 1e-3}}
	cfgs := []*testcfg.Config{
		testcfg.NewCustom(101, "boom-a", params, returns, chaosMeter(1, boom)),
		testcfg.NewCustom(102, "boom-b", params, returns, chaosMeter(0.5, boom)),
	}
	s := chaosSession(t, cfgs, nil)
	sols, err := s.GenerateAll(chaosFaults())
	if err != nil {
		t.Fatalf("GenerateAll aborted: %v", err)
	}
	sol := sols[0]
	if v := sol.Verdict(); v != VerdictQuarantined {
		t.Fatalf("verdict = %s, want %s", v, VerdictQuarantined)
	}
	if sol.ConfigIdx != -1 || sol.ConfigID(s) != -1 || sol.Params != nil {
		t.Errorf("quarantined solution carries a test: config %d params %v", sol.ConfigIdx, sol.Params)
	}
	if len(s.Quarantined()) != 2 {
		t.Errorf("quarantine records = %d, want 2 (both configs)", len(s.Quarantined()))
	}
	if tests := TestsOf(sols); len(tests) != 1 {
		t.Errorf("TestsOf kept %d tests, want 1 (sibling only)", len(tests))
	}
	d := s.Tabulate(sols)
	if d.Unresolved[fault.KindBridge] != 1 {
		t.Errorf("Tabulate unresolved = %v, want 1 bridge", d.Unresolved)
	}
	// The sibling is still fine.
	if v := sols[1].Verdict(); v != VerdictDetected {
		t.Errorf("sibling verdict = %s, want %s", v, VerdictDetected)
	}
}

// TestStallAbortsWithoutPolicyEndsUndeterminedWithOne pins both sides
// of the retry contract with a fault whose insertion always fails, so
// every objective evaluation is poisoned: without a policy the run
// aborts (the seed's fail-fast), with one the fault ends as
// VerdictUndetermined carrying the attempt history.
func TestStallAbortsWithoutPolicyEndsUndeterminedWithOne(t *testing.T) {
	bogus := fault.NewBridge("NoSuchNode", macros.NodeVout, 1e3)
	faults := []fault.Fault{chaosFaults()[0], bogus}

	// Fail-fast without a policy.
	s := chaosSession(t, chaosConfigs(nil), nil)
	if _, err := s.GenerateAll(faults); err == nil {
		t.Fatal("run with an uninsertable fault and no retry policy did not abort")
	}

	// Degraded completion with one.
	s = chaosSession(t, chaosConfigs(nil), func(c *Config) {
		c.Retry = &RetryPolicy{MaxAttempts: 3}
	})
	sols, err := s.GenerateAll(faults)
	if err != nil {
		t.Fatalf("GenerateAll under retry policy aborted: %v", err)
	}
	sol := sols[1]
	if v := sol.Verdict(); v != VerdictUndetermined {
		t.Fatalf("stalled fault verdict = %s, want %s", v, VerdictUndetermined)
	}
	if sol.ConfigIdx != -1 || sol.Params != nil {
		t.Errorf("undetermined solution carries a test: config %d params %v", sol.ConfigIdx, sol.Params)
	}
	// 2 configs × 3 attempts each, with 2 retries per config.
	if sol.Attempts != 6 {
		t.Errorf("attempt history = %d, want 6", sol.Attempts)
	}
	st := s.Stats()
	if st.Retries != 4 {
		t.Errorf("Stats().Retries = %d, want 4", st.Retries)
	}
	if st.Undetermined != 1 {
		t.Errorf("Stats().Undetermined = %d, want 1", st.Undetermined)
	}
	for _, c := range sol.Candidates {
		if !c.Failed || c.Attempts != 3 {
			t.Errorf("candidate %+v, want Failed after 3 attempts", c)
		}
	}
	// The healthy fault is unaffected.
	if v := sols[0].Verdict(); v != VerdictDetected {
		t.Errorf("healthy fault verdict = %s, want %s", v, VerdictDetected)
	}
}

// solutionRecords flattens solutions for bit-exact comparison
// (SolutionRecord holds exactly the fields downstream stages consume).
func solutionRecords(sols []*Solution) []SolutionRecord {
	out := make([]SolutionRecord, len(sols))
	for i, sol := range sols {
		out[i] = recordOf(sol)
	}
	return out
}

// TestCheckpointResumeBitIdentical runs generation three ways — without
// checkpointing, with it, and resumed from a truncated checkpoint (a
// stand-in for a killed run) — and requires all three to produce
// bit-identical results.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	faults := chaosFaults()
	path := filepath.Join(t.TempDir(), "ckpt.json")

	baseline := chaosSession(t, chaosConfigs(nil), nil)
	want, err := baseline.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}

	// A checkpointed run writes a complete, versioned checkpoint.
	s := chaosSession(t, chaosConfigs(nil), func(c *Config) { c.CheckpointPath = path })
	got, err := s.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solutionRecords(want), solutionRecords(got)) {
		t.Fatalf("checkpointed run diverged:\n%+v\nwant\n%+v", solutionRecords(got), solutionRecords(want))
	}
	var cp Checkpoint
	if err := ckpt.Load(path, &cp); err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if cp.Version != CheckpointVersion || len(cp.Solutions) != len(faults) {
		t.Fatalf("checkpoint version %d with %d solutions, want %d with %d",
			cp.Version, len(cp.Solutions), CheckpointVersion, len(faults))
	}

	// Simulate a mid-run kill: drop one fault's record, resume, and
	// require the merged result to be bit-identical to the baseline.
	delete(cp.Solutions, faults[1].ID())
	if err := ckpt.Save(path, cp); err != nil {
		t.Fatal(err)
	}
	s = chaosSession(t, chaosConfigs(nil), func(c *Config) {
		c.CheckpointPath = path
		c.Resume = true
	})
	got, err = s.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solutionRecords(want), solutionRecords(got)) {
		t.Fatalf("resumed run diverged:\n%+v\nwant\n%+v", solutionRecords(got), solutionRecords(want))
	}
	if !got[0].Resumed || got[1].Resumed {
		t.Errorf("Resumed flags = %v/%v, want restored/recomputed", got[0].Resumed, got[1].Resumed)
	}

	// A fully-resumed run restores everything and simulates nothing.
	s = chaosSession(t, chaosConfigs(nil), func(c *Config) {
		c.CheckpointPath = path
		c.Resume = true
	})
	got, err = s.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solutionRecords(want), solutionRecords(got)) {
		t.Fatal("fully-resumed run diverged")
	}
	for i, sol := range got {
		if !sol.Resumed {
			t.Errorf("solution %d not marked Resumed", i)
		}
	}
	if st := s.Stats(); st.FaultyRuns != 0 {
		t.Errorf("fully-resumed run spent %d faulty simulations, want 0", st.FaultyRuns)
	}
}

// TestResumeRejectsForeignCheckpoint: a checkpoint from a different run
// setup (here: a different fault list) must be refused, not silently
// merged.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	faults := chaosFaults()
	path := filepath.Join(t.TempDir(), "ckpt.json")
	s := chaosSession(t, chaosConfigs(nil), func(c *Config) { c.CheckpointPath = path })
	if _, err := s.GenerateAll(faults); err != nil {
		t.Fatal(err)
	}
	s = chaosSession(t, chaosConfigs(nil), func(c *Config) {
		c.CheckpointPath = path
		c.Resume = true
	})
	_, err := s.GenerateAll(faults[:1])
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume with a foreign checkpoint: err = %v, want fingerprint mismatch", err)
	}
}
