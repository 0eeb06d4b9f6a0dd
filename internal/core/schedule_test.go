package core

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/testcfg"
)

// allConfigs returns the full five-configuration list for tests that
// need the transient configurations.
func allConfigs() []*testcfg.Config { return testcfg.IVConfigs() }

func TestApplicationTimePerConfig(t *testing.T) {
	s := dcSession(t)
	dc := s.ApplicationTime(Test{ConfigIdx: 0, Params: []float64{20e-6}})
	if dc < time.Millisecond || dc > 5*time.Millisecond {
		t.Errorf("DC application time = %v, want ~1.5 ms", dc)
	}

	// The price follows the simulate step, not the name: #6 captures the
	// same five sine periods as #3, a description's sine capture too
	// (its frequency is parameter 0), and a description's step response
	// takes the 7.5 µs window.
	var cfgs []*testcfg.Config
	for _, src := range []string{dslSine, dslStep} {
		c, err := testcfg.ParseConfigString(src)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, c)
	}
	ext := testcfg.ExtendedIVConfigs()
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	s, err := NewSession(macros.IVConverter(), append([]*testcfg.Config{ext[2], ext[5]}, cfgs...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	thd := s.ApplicationTime(Test{ConfigIdx: 0, Params: []float64{20e-6, 1e3}})
	if thd < 5*time.Millisecond {
		t.Errorf("1 kHz THD time = %v, want >= 5 ms", thd)
	}
	if sinad := s.ApplicationTime(Test{ConfigIdx: 1, Params: []float64{20e-6, 1e3}}); sinad != thd {
		t.Errorf("1 kHz SINAD time = %v, want the THD capture's %v", sinad, thd)
	}
	if sine := s.ApplicationTime(Test{ConfigIdx: 2, Params: []float64{1e3, 15e-6}}); sine != thd {
		t.Errorf("1 kHz description sine time = %v, want %v", sine, thd)
	}
	if step := s.ApplicationTime(Test{ConfigIdx: 3, Params: []float64{5e-6, 20e-6}}); step != 507500*time.Nanosecond {
		t.Errorf("description step time = %v, want 507.5µs", step)
	}
}

func TestApplicationTimeTHDScalesWithFrequency(t *testing.T) {
	// Need the full config list to exercise the THD branch.
	cfg := DefaultConfig()
	cfg.BoxMode = BoxSeed
	s, err := NewSession(macros.IVConverter(), allConfigs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	thdIdx := 2
	slow := s.ApplicationTime(Test{ConfigIdx: thdIdx, Params: []float64{20e-6, 1e3}})
	fast := s.ApplicationTime(Test{ConfigIdx: thdIdx, Params: []float64{20e-6, 100e3}})
	if slow <= fast {
		t.Errorf("1 kHz THD (%v) should take longer than 100 kHz (%v)", slow, fast)
	}
	// 5 periods at 1 kHz = 5 ms plus setup.
	if slow < 5*time.Millisecond {
		t.Errorf("1 kHz THD time = %v, want >= 5 ms", slow)
	}
}

func TestSetTimeSums(t *testing.T) {
	s := dcSession(t)
	tests := []Test{
		{ConfigIdx: 0, Params: []float64{10e-6}},
		{ConfigIdx: 1, Params: []float64{20e-6}},
	}
	total := s.SetTime(tests)
	want := s.ApplicationTime(tests[0]) + s.ApplicationTime(tests[1])
	if total != want {
		t.Errorf("SetTime = %v, want %v", total, want)
	}
}

func TestScheduleOrdersByYield(t *testing.T) {
	s := dcSession(t)
	faults := []fault.Fault{
		fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3),
		fault.NewBridge("0", macros.NodeVdd, 10e3),
		fault.NewBridge(macros.NodeVref, macros.NodeIin, 10e3),
	}
	// Test 0 detects nothing interesting (weak parameters at 0 current),
	// test 1 detects the supply bridge, test 2 the DC faults.
	tests := []Test{
		{ConfigIdx: 1, Params: []float64{20e-6}}, // supply current
		{ConfigIdx: 0, Params: []float64{20e-6}}, // dc-out
	}
	order, undetected, err := s.Schedule(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("schedule length = %d", len(order))
	}
	// The first scheduled test must contribute at least as many new
	// detections as the second.
	if order[0].NewDetections < order[1].NewDetections {
		t.Errorf("schedule not ordered by yield: %d then %d",
			order[0].NewDetections, order[1].NewDetections)
	}
	totalNew := order[0].NewDetections + order[1].NewDetections
	if totalNew+len(undetected) != len(faults) {
		t.Errorf("accounting: %d new + %d undetected != %d faults",
			totalNew, len(undetected), len(faults))
	}
	for _, e := range order {
		if e.Time <= 0 {
			t.Error("schedule entry without time estimate")
		}
	}
}

func TestScheduleAllUndetected(t *testing.T) {
	s := dcSession(t)
	faults := []fault.Fault{
		fault.NewBridge(macros.NodeIin, macros.NodeVout, 1e9), // invisible
	}
	tests := []Test{{ConfigIdx: 0, Params: []float64{20e-6}}}
	_, undetected, err := s.Schedule(tests, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(undetected) != 1 {
		t.Errorf("undetected = %v, want the invisible fault", undetected)
	}
}
