package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/sim"
	"repro/internal/testcfg"
	"repro/internal/wave"
)

// goldenKernel is the frozen behaviour of the simulation kernel, captured
// from the pre-split-stamp implementation. The kernel rewrite (linear
// snapshots, in-place solves, cached AC bases) must reproduce every value
// bit-identically (tolerance 1e-12): the restamp/restore refactor changes
// the order of additions only between *different* matrix entries, never
// within one, so the float results must not move.
//
// Regenerate with:
//
//	GOLDEN_UPDATE=1 go test ./internal/core -run TestGoldenKernel
type goldenKernel struct {
	Sensitivities map[string]float64 `json:"sensitivities"`
	Coverage      struct {
		Detected   int            `json:"detected"`
		Total      int            `json:"total"`
		DetectedBy map[string]int `json:"detected_by"`
		Undetected []string       `json:"undetected"`
	} `json:"coverage"`
	Compact []struct {
		ConfigIdx int       `json:"config_idx"`
		Params    []float64 `json:"params"`
		Members   []string  `json:"members"`
	} `json:"compact"`
	ACMagDB     []float64 `json:"ac_mag_db"`
	ACPhaseDeg  []float64 `json:"ac_phase_deg"`
	StepSamples []float64 `json:"step_samples"`
}

const goldenPath = "testdata/golden_kernel.json"

// goldenFaults is the fixed dictionary slice the golden workload runs:
// a representative mix of bridges and pinholes, cheap enough for -race.
func goldenFaults() []fault.Fault {
	return []fault.Fault{
		fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3),
		fault.NewBridge(macros.NodeVref, macros.NodeIin, 10e3),
		fault.NewBridge(macros.NodeVout, "0", 10e3),
		fault.NewPinhole("M6", 2e3),
		fault.NewPinhole("M1", 2e3),
	}
}

// goldenTests covers the DC kernel (configs #1, #2) and the transient
// kernel (config #4 step integral) at fixed parameter vectors.
func goldenTests() []Test {
	return []Test{
		{ConfigIdx: 0, Params: []float64{20e-6}},
		{ConfigIdx: 1, Params: []float64{35e-6}},
		{ConfigIdx: 2, Params: []float64{5e-6, 20e-6}},
	}
}

func goldenSession(t testing.TB) *Session {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	cfgs := testcfg.IVConfigs()
	// Configs #1 (dc-out), #2 (supply-current), #4 (step-integral).
	sel := []*testcfg.Config{cfgs[0], cfgs[1], cfgs[3]}
	s, err := NewSession(macros.IVConverter(), sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// computeGolden runs the full golden workload on the current kernel.
func computeGolden(t testing.TB) goldenKernel {
	t.Helper()
	var g goldenKernel
	s := goldenSession(t)
	faults := goldenFaults()
	tests := goldenTests()

	// Per-(fault, test) sensitivities: the raw cost function the
	// optimizers see, at the dictionary impact.
	g.Sensitivities = make(map[string]float64)
	for _, f := range faults {
		fd := f.WithImpact(f.InitialImpact())
		for ti, tst := range tests {
			sf, err := s.Sensitivity(tst.ConfigIdx, fd, tst.Params)
			if err != nil {
				t.Fatalf("sensitivity %s test %d: %v", f.ID(), ti, err)
			}
			g.Sensitivities[f.ID()+"#"+string(rune('0'+ti))] = sf
		}
	}

	// Fault-dictionary coverage on the engine pool (exercises the kernel
	// from many goroutines; meaningful under -race).
	rep, err := s.Coverage(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	g.Coverage.Detected = rep.Detected
	g.Coverage.Total = rep.Total
	g.Coverage.DetectedBy = rep.DetectedBy
	g.Coverage.Undetected = rep.Undetected
	if g.Coverage.Undetected == nil {
		g.Coverage.Undetected = []string{}
	}

	// Compaction of synthetic solutions built from the computed
	// sensitivities (fixed parameters, so the collapse is deterministic).
	var sols []*Solution
	solParams := [][]float64{{18e-6}, {22e-6}, {60e-6}}
	for i, f := range faults[:3] {
		p := solParams[i]
		sf, err := s.Sensitivity(0, f.WithImpact(f.InitialImpact()), p)
		if err != nil {
			t.Fatal(err)
		}
		sols = append(sols, &Solution{Fault: f, ConfigIdx: 0, Params: p, Sensitivity: sf})
	}
	cts, err := s.Compact(sols, DefaultCompactOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range cts {
		g.Compact = append(g.Compact, struct {
			ConfigIdx int       `json:"config_idx"`
			Params    []float64 `json:"params"`
			Members   []string  `json:"members"`
		}{ct.ConfigIdx, ct.Params, ct.Members})
	}

	// AC kernel, straight on a sim engine.
	eng, err := sim.New(macros.IVConverter(), sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	xop, err := eng.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	freqs := sim.LogSpace(1e3, 1e8, 9)
	ac, err := eng.AC(xop, macros.InputSourceName, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		g.ACMagDB = append(g.ACMagDB, ac.MagDB(i, macros.NodeVout))
		g.ACPhaseDeg = append(g.ACPhaseDeg, ac.PhaseDeg(i, macros.NodeVout))
	}

	// Transient kernel: a short fixed-step step response, every 50th
	// sample frozen.
	tckt := macros.IVConverter()
	macros.SetInputWave(tckt, wave.Step{Base: 5e-6, Elev: 20e-6, Delay: 10e-9, Rise: 10e-9})
	teng, err := sim.New(tckt, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := teng.Transient(2e-6, 10e-9, []string{macros.NodeVout})
	if err != nil {
		t.Fatal(err)
	}
	sig := tr.Signal(macros.NodeVout)
	for i := 0; i < len(sig); i += 50 {
		g.StepSamples = append(g.StepSamples, sig[i])
	}
	return g
}

// TestGoldenKernel locks the kernel's numerical behaviour. Set
// GOLDEN_UPDATE=1 to regenerate the frozen values (only legitimate when
// a change intentionally alters numerics, which the split-stamp rewrite
// must not).
func TestGoldenKernel(t *testing.T) {
	got := computeGolden(t)

	if os.Getenv("GOLDEN_UPDATE") == "1" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden kernel values rewritten to %s", goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	var want goldenKernel
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}

	const tol = 1e-12
	near := func(a, b float64) bool {
		if a == b {
			return true
		}
		scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		return math.Abs(a-b) <= tol*scale
	}

	for k, w := range want.Sensitivities {
		if gv, ok := got.Sensitivities[k]; !ok || !near(gv, w) {
			t.Errorf("sensitivity %s: got %.17g want %.17g", k, gv, w)
		}
	}
	if got.Coverage.Detected != want.Coverage.Detected || got.Coverage.Total != want.Coverage.Total {
		t.Errorf("coverage %d/%d, want %d/%d", got.Coverage.Detected, got.Coverage.Total,
			want.Coverage.Detected, want.Coverage.Total)
	}
	for id, ti := range want.Coverage.DetectedBy {
		if got.Coverage.DetectedBy[id] != ti {
			t.Errorf("fault %s detected by test %d, want %d", id, got.Coverage.DetectedBy[id], ti)
		}
	}
	if len(got.Compact) != len(want.Compact) {
		t.Fatalf("compaction produced %d tests, want %d", len(got.Compact), len(want.Compact))
	}
	for i := range want.Compact {
		gw, ww := got.Compact[i], want.Compact[i]
		if gw.ConfigIdx != ww.ConfigIdx || len(gw.Members) != len(ww.Members) {
			t.Errorf("compact[%d]: got cfg %d members %v, want cfg %d members %v",
				i, gw.ConfigIdx, gw.Members, ww.ConfigIdx, ww.Members)
			continue
		}
		for j := range ww.Members {
			if gw.Members[j] != ww.Members[j] {
				t.Errorf("compact[%d] member %d: got %s want %s", i, j, gw.Members[j], ww.Members[j])
			}
		}
		for j := range ww.Params {
			if !near(gw.Params[j], ww.Params[j]) {
				t.Errorf("compact[%d] param %d: got %.17g want %.17g", i, j, gw.Params[j], ww.Params[j])
			}
		}
	}
	vecNear := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Errorf("%s: length %d, want %d", name, len(g), len(w))
			return
		}
		for i := range w {
			if !near(g[i], w[i]) {
				t.Errorf("%s[%d]: got %.17g want %.17g", name, i, g[i], w[i])
			}
		}
	}
	vecNear("ac_mag_db", got.ACMagDB, want.ACMagDB)
	vecNear("ac_phase_deg", got.ACPhaseDeg, want.ACPhaseDeg)
	vecNear("step", got.StepSamples, want.StepSamples)
}
