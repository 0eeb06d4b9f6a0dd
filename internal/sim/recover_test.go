package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/macros"
)

// TestSourceSteppingStall pins the terminal failure mode: with MaxIter=1
// every strategy fails, source stepping halves its step below the 1e-4
// floor, and the engine reports the stall wrapped in ErrNoConvergence —
// while the counters still account every failed attempt.
func TestSourceSteppingStall(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 1
	opts.Recovery = nil
	e, err := New(macros.IVConverter(), opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.OperatingPoint()
	if err == nil {
		t.Fatal("1-iteration budget converged — fallback accounting broken")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("error = %v, want errors.Is(ErrNoConvergence)", err)
	}
	if !strings.Contains(err.Error(), "source stepping stalled at scale") {
		t.Errorf("error = %q, want the source-stepping stall message", err)
	}
	st := e.Stats()
	if st.Solves == 0 {
		t.Error("Solves = 0: failed attempts must still be counted")
	}
	if st.NewtonIterations < st.Solves {
		t.Errorf("NewtonIterations = %d < Solves = %d: each failed solve runs at least one iteration",
			st.NewtonIterations, st.Solves)
	}
	if st.RecoveryAttempts != 0 || st.Recoveries != 0 {
		t.Errorf("recovery counters = %d/%d with a nil ladder, want 0/0",
			st.RecoveryAttempts, st.Recoveries)
	}
}

// TestRecoveryLadderRescues: a budget that defeats the stock strategy is
// rescued by a ladder rung that raises MaxIter, and the rescued solution
// matches the unconstrained operating point.
func TestRecoveryLadderRescues(t *testing.T) {
	ref := func() float64 {
		e, err := New(macros.IVConverter(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		x, err := e.OperatingPoint()
		if err != nil {
			t.Fatal(err)
		}
		return e.Voltage(x, macros.NodeVout)
	}()

	opts := DefaultOptions()
	opts.MaxIter = 1
	opts.Recovery = []Relaxation{
		{TolScale: 1, MaxIter: 2}, // still hopeless: counts an attempt
		{TolScale: 1, MaxIter: 400},
	}
	e, err := New(macros.IVConverter(), opts)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.OperatingPoint()
	if err != nil {
		t.Fatalf("ladder failed to rescue: %v", err)
	}
	if got := e.Voltage(x, macros.NodeVout); math.Abs(got-ref) > 1e-3 {
		t.Errorf("rescued OP Vout = %g, reference %g", got, ref)
	}
	st := e.Stats()
	if st.RecoveryAttempts != 2 {
		t.Errorf("RecoveryAttempts = %d, want 2", st.RecoveryAttempts)
	}
	if st.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", st.Recoveries)
	}
	if e.opts.MaxIter != 1 {
		t.Errorf("opts.MaxIter = %d after recovery, want the original 1 restored", e.opts.MaxIter)
	}
}

// TestRecoveryLadderExhausted: when every rung fails the original error
// (from the un-relaxed attempt) is reported.
func TestRecoveryLadderExhausted(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 1
	opts.Recovery = []Relaxation{{TolScale: 1, MaxIter: 2}}
	e, err := New(macros.IVConverter(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.OperatingPoint(); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error = %v, want ErrNoConvergence after ladder exhaustion", err)
	}
	st := e.Stats()
	if st.RecoveryAttempts != 1 || st.Recoveries != 0 {
		t.Errorf("recovery counters = %d/%d, want 1/0", st.RecoveryAttempts, st.Recoveries)
	}
}

// TestRelaxationApply pins the rung semantics: zero-valued fields leave
// the option untouched.
func TestRelaxationApply(t *testing.T) {
	base := DefaultOptions()
	got := Relaxation{}.apply(base)
	if got.AbsTol != base.AbsTol || got.MaxIter != base.MaxIter || got.GminFloor != base.GminFloor {
		t.Errorf("zero rung changed options: %+v", got)
	}
	got = Relaxation{TolScale: 10, GminFloor: 1e-9, MaxIter: 300}.apply(base)
	if got.AbsTol != base.AbsTol*10 || got.RelTol != base.RelTol*10 {
		t.Errorf("TolScale not applied: %+v", got)
	}
	if got.GminFloor != 1e-9 || got.MaxIter != 300 {
		t.Errorf("GminFloor/MaxIter not applied: %+v", got)
	}
}
