package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/testcfg"
	"repro/internal/wave"
)

// fastFaultMix is a dictionary slice covering every fast-path
// eligibility class: bridges and pinholes implement fault.Retargetable
// (retained evaluators), opens do not (throwaway path), and the weak
// bridge drives the impact ladder through many weaken steps.
func fastFaultMix() []fault.Fault {
	tn := macros.TransistorNames()
	return []fault.Fault{
		fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3),
		fault.NewBridge(macros.NodeVref, macros.NodeIin, 20e3),
		fault.NewPinhole(tn[0], 1e3),
		fault.NewDrainOpen(tn[1], 1e6),
	}
}

func fastSession(t *testing.T, disable bool) *Session {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	cfg.Workers = 4
	cfg.DisableFastPath = disable
	s, err := NewSession(macros.IVConverter(), testcfg.IVConfigs()[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// linearMacro is a resistive macro with the standard IV interface
// (Iin current source, Vdd supply, Vout node): no nonlinear devices, so
// every Newton solve is a single linear solve.
func linearMacro() *circuit.Circuit {
	c := circuit.New("linear-iv")
	c.Add(device.NewDCVSource(macros.SupplySourceName, macros.NodeVdd, "0", macros.SupplyVoltage))
	c.Add(device.NewISource(macros.InputSourceName, macros.NodeIin, "0", wave.DC(0)))
	c.Add(device.NewResistor("R1", macros.NodeIin, macros.NodeVout, 10e3))
	c.Add(device.NewResistor("R2", macros.NodeVout, "0", 10e3))
	c.Add(device.NewResistor("R3", macros.NodeVdd, macros.NodeVout, 20e3))
	c.Add(device.NewResistor("R4", macros.NodeIin, "0", 50e3))
	return c
}

// linearFaults bridges the linear macro's output to its input and to
// the supply.
func linearFaults() []fault.Fault {
	return []fault.Fault{
		fault.NewBridge(macros.NodeIin, macros.NodeVout, 5e3),
		fault.NewBridge(macros.NodeVdd, macros.NodeVout, 20e3),
	}
}

func linearSession(t *testing.T, disable bool) *Session {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	cfg.Workers = 4
	cfg.DisableFastPath = disable
	s, err := NewSession(linearMacro(), testcfg.IVConfigs()[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFastPathBitIdentical is the end-to-end identity property: with the
// retained-evaluator fast path forced on vs off, generation must produce
// bit-identical outputs — winning configuration, parameters, critical
// impact, dictionary-impact sensitivity, verdicts, and the impact-ladder
// trajectory (impact values and detect counts; the recorded per-step
// sensitivities may be warm values and are exempt). It runs on the
// IV-converter and on the linear macro. Run under -race in CI, with
// parallel workers on both sessions.
func TestFastPathBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		session func(*testing.T, bool) *Session
		faults  []fault.Fault
	}{
		{"iv-converter", fastSession, fastFaultMix()},
		{"linear", linearSession, linearFaults()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkFastPathBitIdentical(t, tc.session(t, false), tc.session(t, true), tc.faults)
		})
	}
}

// checkFastPathBitIdentical generates faults on both sessions and
// compares everything generation and coverage decide.
func checkFastPathBitIdentical(t *testing.T, fastS, slowS *Session, faults []fault.Fault) {
	t.Helper()
	fastSols, err := fastS.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	slowSols, err := slowS.GenerateAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		fs, ss := fastSols[i], slowSols[i]
		if fs.ConfigIdx != ss.ConfigIdx {
			t.Errorf("%s: ConfigIdx %d (fast) vs %d (slow)", f.ID(), fs.ConfigIdx, ss.ConfigIdx)
		}
		if len(fs.Params) != len(ss.Params) {
			t.Fatalf("%s: param arity %d vs %d", f.ID(), len(fs.Params), len(ss.Params))
		}
		for j := range fs.Params {
			if fs.Params[j] != ss.Params[j] {
				t.Errorf("%s: Params[%d] = %g (fast) vs %g (slow) — must be bit-identical",
					f.ID(), j, fs.Params[j], ss.Params[j])
			}
		}
		if fs.Sensitivity != ss.Sensitivity {
			t.Errorf("%s: Sensitivity %g (fast) vs %g (slow)", f.ID(), fs.Sensitivity, ss.Sensitivity)
		}
		if fs.CriticalImpact != ss.CriticalImpact {
			t.Errorf("%s: CriticalImpact %g (fast) vs %g (slow)", f.ID(), fs.CriticalImpact, ss.CriticalImpact)
		}
		if fs.Undetectable != ss.Undetectable || fs.Verdict() != ss.Verdict() {
			t.Errorf("%s: verdict %s/%v (fast) vs %s/%v (slow)",
				f.ID(), fs.Verdict(), fs.Undetectable, ss.Verdict(), ss.Undetectable)
		}
		if fs.ImpactIters != ss.ImpactIters || len(fs.Trace) != len(ss.Trace) {
			t.Fatalf("%s: ladder shape %d/%d (fast) vs %d/%d (slow)",
				f.ID(), fs.ImpactIters, len(fs.Trace), ss.ImpactIters, len(ss.Trace))
		}
		for k := range fs.Trace {
			if fs.Trace[k].Impact != ss.Trace[k].Impact || fs.Trace[k].Detects != ss.Trace[k].Detects {
				t.Errorf("%s: ladder step %d: impact/detects %g/%d (fast) vs %g/%d (slow)",
					f.ID(), k, fs.Trace[k].Impact, fs.Trace[k].Detects, ss.Trace[k].Impact, ss.Trace[k].Detects)
			}
		}
		for j := range fs.Candidates {
			fc, sc := fs.Candidates[j], ss.Candidates[j]
			if fc.SoftS != sc.SoftS || len(fc.Params) != len(sc.Params) {
				t.Errorf("%s: candidate %d SoftS %g (fast) vs %g (slow)", f.ID(), j, fc.SoftS, sc.SoftS)
				continue
			}
			for p := range fc.Params {
				if fc.Params[p] != sc.Params[p] {
					t.Errorf("%s: candidate %d Params[%d] differ", f.ID(), j, p)
				}
			}
		}
	}

	// Coverage verdicts must be identical as well.
	tests := TestsOf(slowSols)
	fastRep, err := fastS.Coverage(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	slowRep, err := slowS.Coverage(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	if fastRep.Detected != slowRep.Detected || len(fastRep.Undetected) != len(slowRep.Undetected) {
		t.Errorf("coverage: %d detected (fast) vs %d (slow)", fastRep.Detected, slowRep.Detected)
	}
	for id, ti := range slowRep.DetectedBy {
		if fastRep.DetectedBy[id] != ti {
			t.Errorf("coverage: %s detected by test %d (fast) vs %d (slow)", id, fastRep.DetectedBy[id], ti)
		}
	}
}

// TestCrossCheckClean: with the debug cross-check enabled, every
// fast-path evaluation is replayed through the throwaway path; a run
// completing without error is the machine-checked statement that the
// two never differ in a single bit. It covers the DC configurations on
// the IV-converter and on the linear macro, and on the IV-converter a
// step configuration (#4), #3 and #6 sharing one sine capture, a
// description of each stimulus kind and a custom configuration.
func TestCrossCheckClean(t *testing.T) {
	iv := testcfg.ExtendedIVConfigs()
	dsl := func(src string) []*testcfg.Config {
		c, err := testcfg.ParseConfigString(src)
		if err != nil {
			t.Fatal(err)
		}
		return []*testcfg.Config{c}
	}
	bridge := fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3)
	for _, tc := range []struct {
		name    string
		golden  *circuit.Circuit
		configs []*testcfg.Config
		f       fault.Fault
	}{
		{"iv-converter", macros.IVConverter(), iv[:2], bridge},
		{"linear", linearMacro(), iv[:2], fault.NewBridge(macros.NodeVdd, macros.NodeVout, 20e3)},
		{"iv-converter transient", macros.IVConverter(), iv[3:4], bridge},
		{"thd and sinad", macros.IVConverter(), []*testcfg.Config{iv[2], iv[5]}, bridge},
		{"dsl dc", macros.IVConverter(), dsl(dslDC), bridge},
		{"dsl sine", macros.IVConverter(), dsl(dslSine), bridge},
		{"dsl step", macros.IVConverter(), dsl(dslStep), bridge},
		{"custom", macros.IVConverter(), chaosConfigs(nil)[:1], fault.NewBridge(macros.NodeIin, macros.NodeVout, 1e3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BoxMode = BoxSeed
			cfg.Workers = 4
			cfg.CrossCheck = true
			s, err := NewSession(tc.golden, tc.configs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.Generate(tc.f)
			if err != nil {
				t.Fatalf("cross-checked generation failed: %v", err)
			}
			if sol.Verdict() != VerdictDetected {
				t.Errorf("%s verdict = %s, want detected", tc.f.ID(), sol.Verdict())
			}
		})
	}
}

// One description per stimulus kind: Out1 and Vmid, other amplitudes
// and timings, so the compiled steps run with non-default arguments.
const (
	dslDC   = "config 7 dsl-dc\nstimulus dc(a)\nparam a A 0 100u seed 20u\nreturn vdc(Out1) accuracy 1m\n"
	dslSine = "config 8 dsl-sine\nstimulus sine(a, 3u, f)\nparam f Hz 1k 100k seed 20k\nparam a A 0 40u seed 15u\nreturn thd(Vout) accuracy 0.02\n"
	dslStep = "config 9 dsl-step\nstimulus step(b, e, 20n, 5n)\nparam b A 0 40u seed 5u\nparam e A 0 40u seed 20u\nreturn sum(Vmid) accuracy 7.5n\n"
)

// TestDSLSessionRetainsEvaluators: description-language configurations
// run on retained faulty evaluators like the built-ins, so a session
// whose only configurations are descriptions credits the factorizations
// they avoid.
func TestDSLSessionRetainsEvaluators(t *testing.T) {
	var cfgs []*testcfg.Config
	for _, src := range []string{dslDC, dslStep} {
		c, err := testcfg.ParseConfigString(src)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, c)
	}
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	cfg.Workers = 1
	s, err := NewSession(macros.IVConverter(), cfgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate(fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3)); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().Solver.FaultyFactorAvoided; n == 0 {
		t.Error("FaultyFactorAvoided = 0: the descriptions ran no retained evaluator")
	}
}

// TestFastPathCountsAvoidedFactors: the retained evaluators must credit
// the solver-economy counter that surfaces in metrics and reports.
func TestFastPathCountsAvoidedFactors(t *testing.T) {
	s := fastSession(t, false)
	before := s.Metrics().Solver.FaultyFactorAvoided
	f := fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3)
	if _, err := s.Generate(f); err != nil {
		t.Fatal(err)
	}
	after := s.Metrics().Solver.FaultyFactorAvoided
	if after <= before {
		t.Errorf("FaultyFactorAvoided did not advance (%d -> %d)", before, after)
	}
}
