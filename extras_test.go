package repro

import (
	"testing"
	"time"
)

func TestSimpleMacroSystem(t *testing.T) {
	sys, err := NewSystem(NewSimpleIVConverter(), IVConfigs(), WithFastBoxes())
	if err != nil {
		t.Fatal(err)
	}
	// 9 nodes -> C(9,2)=36 bridges + 8 pinholes.
	if got := len(sys.Faults()); got != 44 {
		t.Errorf("simple macro dictionary = %d, want 44", got)
	}
}

func TestWeightedCoverageFacade(t *testing.T) {
	sys := fastSystem(t)
	faults := []Fault{sys.Faults()[8], sys.Faults()[5]} // 0-Vdd bridge among them
	tests := []Test{{ConfigIdx: 1, Params: []float64{20e-6}}}
	rep, err := sys.Coverage(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	uw, err := WeightedCoverage(UniformWeights(faults), rep)
	if err != nil {
		t.Fatal(err)
	}
	if uw != rep.Percent() {
		t.Errorf("uniform weighted = %g, plain = %g", uw, rep.Percent())
	}
	if _, err := WeightedCoverage(HeuristicIFAWeights(faults), rep); err != nil {
		t.Errorf("heuristic weights: %v", err)
	}
}

func TestScheduleAndPruneFacade(t *testing.T) {
	sys := fastSystem(t)
	faults := []Fault{sys.Faults()[5], sys.Faults()[8]}
	tests := []Test{
		{ConfigIdx: 1, Params: []float64{20e-6}},
		{ConfigIdx: 0, Params: []float64{20e-6}},
		{ConfigIdx: 0, Params: []float64{10e-6}},
	}
	sched, _, err := sys.Schedule(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("schedule = %d entries", len(sched))
	}
	pruned, err := sys.Prune(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) >= len(tests) {
		t.Errorf("prune kept %d of %d redundant tests", len(pruned), len(tests))
	}
	// Pruned set must preserve dictionary coverage.
	before, err := sys.Coverage(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	after, err := sys.Coverage(pruned, faults)
	if err != nil {
		t.Fatal(err)
	}
	if after.Detected != before.Detected {
		t.Errorf("prune changed coverage: %d -> %d", before.Detected, after.Detected)
	}
}

func TestSetTimePositive(t *testing.T) {
	sys := fastSystem(t)
	tests := []Test{
		{ConfigIdx: 0, Params: []float64{20e-6}},
		{ConfigIdx: 2, Params: []float64{20e-6, 1e3}},
	}
	total := sys.SetTime(tests)
	if total <= time.Millisecond {
		t.Errorf("SetTime = %v, want > 1 ms (1 kHz THD alone is ~5 ms)", total)
	}
	if sys.ApplicationTime(tests[1]) <= sys.ApplicationTime(tests[0]) {
		t.Error("1 kHz THD (5 periods = 5 ms) should cost more than a DC test")
	}
}
