package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
)

// TestStallWatchdogQuarantines arms the core.opt.eval failpoint with a
// one-shot sleep longer than the stall deadline: the first objective
// evaluation wedges, the watchdog cancels the attempt, and exactly that
// fault×config pair must be quarantined with reason "stalled" — while
// the fault still resolves through the surviving configuration.
func TestStallWatchdogQuarantines(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Apply("core.opt.eval=sleep(300ms):once"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.New(obs.NewJournal(&buf))
	s := chaosSession(t, chaosConfigs(nil), func(c *Config) {
		c.Workers = 1 // deterministic victim: fault 0 under config 101
		c.StallTimeout = 50 * time.Millisecond
		c.Tracer = tr
	})
	sols, err := s.GenerateAll(chaosFaults())
	if err != nil {
		t.Fatalf("GenerateAll with a wedged attempt aborted: %v", err)
	}
	tr.Finish(nil)

	q := s.Quarantined()
	if len(q) != 1 {
		t.Fatalf("quarantine records = %+v, want exactly one", q)
	}
	rec := q[0]
	if rec.Reason != QuarantineStalled {
		t.Errorf("Reason = %q, want %q", rec.Reason, QuarantineStalled)
	}
	if rec.FaultID != "bridge:Iin-Vout" || rec.ConfigID != 101 || rec.Phase != PhaseOptimize {
		t.Errorf("quarantined %s under config %d in phase %s, want bridge:Iin-Vout under 101 in %s",
			rec.FaultID, rec.ConfigID, rec.Phase, PhaseOptimize)
	}
	if rec.Value != "" || rec.Stack != "" {
		t.Errorf("stall quarantine carries panic payload: value %q stack %d bytes", rec.Value, len(rec.Stack))
	}

	// The wedged pair is out; the fault survives via config 102.
	if v := sols[0].Verdict(); v != VerdictDetected {
		t.Errorf("victim fault verdict = %s, want %s", v, VerdictDetected)
	}
	if id := sols[0].ConfigID(s); id != 102 {
		t.Errorf("victim fault won config %d, want the surviving 102", id)
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
	if v := sols[1].Verdict(); v != VerdictDetected {
		t.Errorf("sibling fault verdict = %s, want %s", v, VerdictDetected)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"reason":"stalled"`)) {
		t.Error("journal has no stalled-reason quarantine event")
	}
}

// TestWatchdogIdleWhenProgressing: a healthy run under a generous stall
// deadline must not quarantine anything.
func TestWatchdogIdleWhenProgressing(t *testing.T) {
	s := chaosSession(t, chaosConfigs(nil), func(c *Config) {
		c.StallTimeout = 5 * time.Second
	})
	sols, err := s.GenerateAll(chaosFaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Quarantined()) != 0 {
		t.Fatalf("healthy run quarantined: %+v", s.Quarantined())
	}
	for i, sol := range sols {
		if v := sol.Verdict(); v != VerdictDetected {
			t.Errorf("fault %d verdict = %s, want %s", i, v, VerdictDetected)
		}
	}
}
