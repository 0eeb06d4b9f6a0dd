package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/sim"
	"repro/internal/testcfg"
)

// plainSensitivity recomputes S_f the way the paper defines it, with no
// session machinery: Config.Run on the golden macro and on the fault
// inserted at impact, folded against the session's tolerance box.
func plainSensitivity(t *testing.T, s *Session, ci int, f fault.Fault, impact float64, T []float64) float64 {
	t.Helper()
	c := s.Configs()[ci]
	nom, err := c.Run(s.Golden(), T)
	if err != nil {
		t.Fatalf("nominal %s at %v: %v", c.Name, T, err)
	}
	faulty, err := f.WithImpact(impact).Insert(s.Golden())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := c.Run(faulty, T)
	if err != nil {
		return DetectedSentinel
	}
	box := s.Box(ci).Halfwidths(T)
	sf := math.Inf(1)
	for i := range nom {
		hw := box[i]
		if hw <= 0 {
			hw = 1e-12
		}
		sf = math.Min(sf, 1-math.Abs(rf[i]-nom[i])/hw)
	}
	return sf
}

// memoFaults is a small, quick slice of the simple converter's
// dictionary: bridges with different winners, the invisible
// bridge:0-Vref, and a pinhole.
func memoFaults(golden *circuit.Circuit) []fault.Fault {
	dict := fault.Dictionary(golden, 10e3, 2e3)
	var out []fault.Fault
	for _, id := range []string{"bridge:0-Vdd", "bridge:0-Vref", "bridge:Iin-Vout", "pinhole:M5"} {
		f := fault.ByID(dict, id)
		if f == nil {
			panic("memoFaults: no fault " + id)
		}
		out = append(out, f)
	}
	return out
}

// TestMemoTransparency: with every analysis served through the memo, a
// full generate → compact → coverage run reports exactly the values a
// plain Config.Run recomputation gives — every Solution.Sensitivity,
// every exact impact-ladder value, and every coverage verdict.
func TestMemoTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("transient ATPG run; skipped under -short")
	}
	golden := macros.SimpleIVConverter()
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	cfg.Workers = 2
	cfg.OptTol = 0.1 // coarse optimizations keep the run short under -race
	// The two shared groups (#1/#2, #4/#5); the THD configuration shares
	// nothing and only lengthens the run.
	all := testcfg.IVConfigs()
	s, err := NewSession(golden, []*testcfg.Config{all[0], all[1], all[3], all[4]}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := memoFaults(golden)
	sols, err := s.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := s.Compact(sols, DefaultCompactOptions())
	if err != nil {
		t.Fatal(err)
	}
	tests := TestsOfCompact(cts)
	cov, err := s.Coverage(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MemoHits == 0 {
		t.Fatal("the memo served nothing; the test exercises nothing")
	}

	// The ladder values of configurations with a warm-start recipe may be
	// warm (approximate) by design; all others are exact.
	warm := make([]bool, len(s.Configs()))
	for ci, c := range s.Configs() {
		if ev, err := c.Prepare(golden, sim.DefaultOptions()); err == nil {
			warm[ci] = ev.HasWarm()
		}
	}
	exact := 0
	for _, sol := range sols {
		f := sol.Fault
		if sol.ConfigIdx >= 0 {
			want := plainSensitivity(t, s, sol.ConfigIdx, f, f.InitialImpact(), sol.Params)
			if math.Float64bits(sol.Sensitivity) != math.Float64bits(want) {
				t.Errorf("%s: Sensitivity %v, plain recomputation %v", f.ID(), sol.Sensitivity, want)
			}
		}
		for _, step := range sol.Trace {
			for i, c := range sol.Candidates {
				if !c.usable() || warm[c.ConfigIdx] {
					continue
				}
				want := plainSensitivity(t, s, c.ConfigIdx, f, step.Impact, c.Params)
				if math.Float64bits(step.Sens[i]) != math.Float64bits(want) {
					t.Errorf("%s: ladder S_f of config #%d at impact %g = %v, plain recomputation %v",
						f.ID(), s.Configs()[c.ConfigIdx].ID, step.Impact, step.Sens[i], want)
				}
				exact++
			}
		}
	}
	if exact == 0 {
		t.Fatal("no exact ladder values compared")
	}
	for _, f := range faults {
		by, detected := cov.DetectedBy[f.ID()]
		for ti, tst := range tests {
			if detected && ti > by {
				break
			}
			sf := plainSensitivity(t, s, tst.ConfigIdx, f, f.InitialImpact(), tst.Params)
			if got := sf < 0; got != (detected && ti == by) {
				t.Errorf("%s: coverage says detected by test %d (detected=%v), plain S_f of test %d = %v",
					f.ID(), by, detected, ti, sf)
			}
		}
	}
}

// analysisCount returns how many analyses of a kind ("sim.op",
// "sim.transient") the session's simulations ran.
func analysisCount(s *Session, name string) uint64 {
	for _, h := range s.Metrics().Durations {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

// TestMemoBoxBuildCounts: configurations #4/#5 share their grid box
// simulations and #1/#2 theirs, so the grid box build of the Table-1
// set runs 250 step and sine transients instead of 375, and 25 DC
// operating points instead of 50 (plus the 250 operating points the
// transients start from) — also with parallel workers, since concurrent
// misses on one analysis simulate once.
func TestMemoBoxBuildCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("grid box build; skipped under -short")
	}
	cfg := DefaultConfig()
	cfg.Workers = 4
	s, err := NewSession(macros.IVConverter(), testcfg.IVConfigs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := analysisCount(s, "sim.transient"); n != 250 {
		t.Errorf("box build ran %d transients, want 250", n)
	}
	if n := analysisCount(s, "sim.op"); n != 250+25 {
		t.Errorf("box build ran %d operating points, want 275", n)
	}
}

// TestMemoDC55Counts pins the simulation economy of the full DC run
// (all 55 faults, configurations #1/#2, seed boxes, one worker): fewer
// simulations than the 956 nominal + 3682 faulty runs it took without
// the memo, with exactly the difference served by the memo and the same
// 42 non-convergent faulty circuits. The counts do not depend on the
// order the faults are generated in: in the reversed order, config #2
// first meets a quantized nominal key at the exact T config #1 met it
// at, which a memo lookup on nominal-cache misses would have served.
func TestMemoDC55Counts(t *testing.T) {
	if testing.Short() {
		t.Skip("55-fault ATPG runs; skipped under -short")
	}
	golden := macros.IVConverter()
	faults := fault.Dictionary(golden, 10e3, 2e3)
	reversed := make([]fault.Fault, len(faults))
	for i, f := range faults {
		reversed[len(faults)-1-i] = f
	}
	run := func(order []fault.Fault) Stats {
		cfg := DefaultConfig()
		cfg.BoxMode = BoxSeed
		cfg.Workers = 1
		s, err := NewSession(golden, testcfg.IVConfigs()[:2], cfg)
		if err != nil {
			t.Fatal(err)
		}
		sols, err := s.GenerateAll(order)
		if err != nil {
			t.Fatal(err)
		}
		// Compaction depends on the order of its input; give both runs
		// the same one.
		sort.Slice(sols, func(a, b int) bool { return sols[a].Fault.ID() < sols[b].Fault.ID() })
		cts, err := s.Compact(sols, DefaultCompactOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Coverage(TestsOfCompact(cts), faults); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	st := run(faults)
	const withoutMemo = 956 + 3682
	if sims := st.NominalRuns + st.FaultyRuns; sims >= withoutMemo {
		t.Errorf("%d nominal + %d faulty simulations, want fewer than %d", st.NominalRuns, st.FaultyRuns, withoutMemo)
	}
	if all := st.NominalRuns + st.FaultyRuns + st.MemoHits; all != withoutMemo {
		t.Errorf("simulated + served = %d + %d + %d = %d, want %d",
			st.NominalRuns, st.FaultyRuns, st.MemoHits, all, withoutMemo)
	}
	if st.FaultyFailures != 42 {
		t.Errorf("FaultyFailures = %d, want 42", st.FaultyFailures)
	}
	rev := run(reversed)
	if rev.NominalRuns != st.NominalRuns || rev.FaultyRuns != st.FaultyRuns ||
		rev.MemoHits != st.MemoHits || rev.FaultyFailures != st.FaultyFailures {
		t.Errorf("reversed fault order: %d nominal + %d faulty runs, %d memo hits, %d failures; dictionary order: %d + %d, %d, %d",
			rev.NominalRuns, rev.FaultyRuns, rev.MemoHits, rev.FaultyFailures,
			st.NominalRuns, st.FaultyRuns, st.MemoHits, st.FaultyFailures)
	}
}

// TestMemoCrossCheck: under CrossCheck every memo hit is recomputed on a
// freshly built circuit. A clean run of all five configurations with
// grid boxes passes; a mismatch planted into what the memo serves fails
// the run.
func TestMemoCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-checked transient ATPG run; skipped under -short")
	}
	golden := macros.SimpleIVConverter()
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.BoxGridN = 2
	cfg.OptTol = 0.1 // coarse optimizations keep the run short under -race
	cfg.CrossCheck = true
	s, err := NewSession(golden, testcfg.IVConfigs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := memoFaults(golden)
	if _, err := s.GenerateAll(faults); err != nil {
		t.Fatalf("cross-checked run failed: %v", err)
	}
	if s.Stats().MemoHits == 0 {
		t.Fatal("the memo served nothing; nothing was cross-checked")
	}

	// Every faulty analysis of a repeated run is a memo hit; perturb the
	// last bit of what the memo serves.
	s.memo.plant = func(all [][]float64) [][]float64 {
		out := make([][]float64, len(all))
		for m, v := range all {
			out[m] = append([]float64(nil), v...)
			out[m][0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1)
		}
		return out
	}
	_, err = s.GenerateAll(faults)
	if !errors.Is(err, errMemoMismatch) {
		t.Fatalf("planted memo mismatch: GenerateAll error = %v, want errMemoMismatch", err)
	}
}

// TestMemoServesLinearMacro: a repeated exact evaluation on a retained
// evaluator is a memo hit, on the linear macro as on the IV-converter.
func TestMemoServesLinearMacro(t *testing.T) {
	f := fault.NewBridge(macros.NodeIin, macros.NodeVout, 5e3)
	T := []float64{30e-6} // off the seed point the box build simulated
	for _, tc := range []struct {
		name string
		s    *Session
	}{
		{"linear", linearSession(t, false)},
		{"iv-converter", dcSession(t)},
	} {
		fe := tc.s.newFaultEval(f, 0)
		if fe == nil {
			t.Fatalf("%s: no retained evaluator", tc.name)
		}
		before := tc.s.Stats()
		for i := 0; i < 2; i++ {
			if _, err := fe.sensitivity(f.Impact(), T); err != nil {
				t.Fatal(err)
			}
		}
		after := tc.s.Stats()
		if runs, served := after.FaultyRuns-before.FaultyRuns, after.MemoHits-before.MemoHits; runs != 1 || served != 1 {
			t.Errorf("%s: a repeated exact evaluation ran %d faulty simulations and %d memo hits, want 1 and 1",
				tc.name, runs, served)
		}
	}
}

// TestExtendedGroups: SINAD (#6) reduces #3's sine capture, so the six
// extended configurations form three simulation groups, and every
// description stands alone.
func TestExtendedGroups(t *testing.T) {
	dc, err := testcfg.ParseConfigString(dslDC)
	if err != nil {
		t.Fatal(err)
	}
	groups, _, _ := groupConfigs(append(testcfg.ExtendedIVConfigs(), dc))
	var ids [][]int
	for _, g := range groups {
		var m []int
		for _, c := range g {
			m = append(m, c.ID)
		}
		ids = append(ids, m)
	}
	if got, want := fmt.Sprint(ids), "[[1 2] [3 6] [4 5] [7]]"; got != want {
		t.Errorf("simulation groups %s, want %s", got, want)
	}
}
