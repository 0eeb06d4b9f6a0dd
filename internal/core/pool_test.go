package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/failpoint"
	"repro/internal/macros"
	"repro/internal/sim"
	"repro/internal/testcfg"
	"repro/internal/tolerance"
)

// freshRun is the pool's oracle: a configuration's return values from
// testcfg.RunGroup on a freshly built circuit.
func freshRun(t *testing.T, c *testcfg.Config, ckt *circuit.Circuit, T []float64) []float64 {
	t.Helper()
	r, err := testcfg.RunGroup([]*testcfg.Config{c}, ckt, T, sim.DefaultOptions())
	if err != nil {
		t.Fatalf("config #%d at %v: fresh run: %v", c.ID, T, err)
	}
	return r[0]
}

// midpoint is the centre of a configuration's parameter box.
func midpoint(c *testcfg.Config) []float64 {
	T := make([]float64, len(c.Params))
	for i, p := range c.Params {
		T[i] = p.Lo + 0.5*(p.Hi-p.Lo)
	}
	return T
}

// requireBits fails unless got and want hold the same bits.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: value %d = %v, fresh circuit %v", what, i, got[i], want[i])
		}
	}
}

// TestPoolBitIdentical: every grid-box halfwidth and every nominal
// response of a session whose analyses run on pooled evaluators equals
// testcfg.RunGroup on a freshly built golden or corner circuit, bit for
// bit — across all five configurations, on evaluators reused from one
// parameter point to the next, and after a run that failed under the
// sim.op.noconv failpoint, whose evaluator the pool drops. Corner
// evaluators do not outlive the box build.
func TestPoolBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("grid box build of all five configurations; skipped under -short")
	}
	golden := macros.SimpleIVConverter()
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.BoxGridN = 3
	s, err := NewSession(golden, testcfg.IVConfigs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, evs := range s.pool.free {
		if k.id.kind != 'g' {
			t.Errorf("%d evaluators of circuit %c kept after the box build", len(evs), k.id.kind)
		}
	}
	for ci, c := range s.Configs() {
		// The grid box again, each deviation from fresh circuits.
		b := c.Bounds()
		want, err := tolerance.BuildGridBox(b.Lo, b.Hi, cfg.BoxGridN, c.Accuracies(),
			func(T []float64) ([]float64, error) {
				var corners [][]float64
				for _, k := range s.Config().Corners {
					corners = append(corners, freshRun(t, c, tolerance.Apply(golden, k), T))
				}
				return tolerance.MaxDeviation(freshRun(t, c, golden, T), corners), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range [][]float64{b.Lo, b.Hi, c.Seeds(), midpoint(c)} {
			requireBits(t, c.Name+" box", s.Box(ci).Halfwidths(T), want.Halfwidths(T))
		}
	}

	// Nominal responses, interleaving the configurations so that #1/#2
	// and #4/#5 take turns on their group's evaluator.
	var points [][][]float64
	for _, c := range s.Configs() {
		points = append(points, [][]float64{midpoint(c), c.Bounds().Hi, c.Seeds()})
	}
	for p := 0; p < 3; p++ {
		for ci, c := range s.Configs() {
			T := points[ci][p]
			got, err := s.Nominal(ci, T)
			if err != nil {
				t.Fatal(err)
			}
			requireBits(t, c.Name+" nominal", got, freshRun(t, c, golden, T))
		}
	}

	// A failed run drops its evaluator; the next run prepares another
	// one and is exact again.
	key := poolKey{id: goldenID, g: s.groupOf[0]}
	if n := len(s.pool.free[key]); n != 1 {
		t.Fatalf("%d pooled golden evaluators for group %d, want 1", n, key.g)
	}
	dropped := s.pool.free[key][0]
	T := []float64{33e-6}
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Apply("sim.op.noconv=error(injected)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Nominal(0, T); !errors.Is(err, sim.ErrNoConvergence) {
		t.Fatalf("nominal run under sim.op.noconv: error %v, want ErrNoConvergence", err)
	}
	if n := len(s.pool.free[key]); n != 0 {
		t.Fatalf("the failed run's evaluator went back to the pool (%d pooled)", n)
	}
	failpoint.Reset()
	got, err := s.Nominal(0, T)
	if err != nil {
		t.Fatal(err)
	}
	requireBits(t, "nominal after a failed run", got, freshRun(t, s.Configs()[0], golden, T))
	if after := s.pool.free[key]; len(after) != 1 || after[0] == dropped {
		t.Errorf("after the failed run the pool holds %v, want one new evaluator (the dropped one was %p)", after, dropped)
	}
}

// TestPoolWorkersDeterministic: which pooled engine serves which
// analysis depends on scheduling, but results and Stats do not — a
// four-worker session generates what a one-worker session does. It
// leaves out #3, whose sine transient is the slowest analysis and pools
// like the step transient of #4/#5, so that -race -count=10 stays short.
func TestPoolWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two ATPG runs; skipped under -short")
	}
	golden := macros.SimpleIVConverter()
	run := func(workers int) ([]SolutionRecord, Stats) {
		cfg := DefaultConfig()
		cfg.BoxMode = BoxSeed
		cfg.Workers = workers
		cfg.OptTol = 0.1
		cfgs := testcfg.IVConfigs()
		s, err := NewSession(golden, append(cfgs[:2:2], cfgs[3:]...), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sols, err := s.GenerateAll(memoFaults(golden))
		if err != nil {
			t.Fatal(err)
		}
		return solutionRecords(sols), s.Stats()
	}
	wantSols, wantStats := run(1)
	gotSols, gotStats := run(4)
	if !reflect.DeepEqual(gotSols, wantSols) {
		t.Errorf("Workers 4 solutions differ from Workers 1:\n got %+v\nwant %+v", gotSols, wantSols)
	}
	if gotStats != wantStats {
		t.Errorf("Workers 4 stats %+v, Workers 1 %+v", gotStats, wantStats)
	}
}

// TestPoolCrossCheck: under CrossCheck every pooled run is recomputed on
// a freshly built circuit, so a difference planted into what a pooled
// evaluator returns fails the run.
func TestPoolCrossCheck(t *testing.T) {
	golden := macros.SimpleIVConverter()
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	cfg.Workers = 2
	cfg.OptTol = 0.1
	cfg.CrossCheck = true
	s, err := NewSession(golden, testcfg.IVConfigs()[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every nominal-cache miss of the run is a pooled run; perturb the
	// last bit of what it returns.
	s.pool.plant = func(all [][]float64) [][]float64 {
		out := make([][]float64, len(all))
		for m, v := range all {
			out[m] = append([]float64(nil), v...)
			out[m][0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1)
		}
		return out
	}
	_, err = s.GenerateAll(memoFaults(golden))
	if !errors.Is(err, errPoolMismatch) {
		t.Fatalf("planted pool mismatch: GenerateAll error = %v, want errPoolMismatch", err)
	}
}
