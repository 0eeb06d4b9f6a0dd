package testcfg

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/macros"
	"repro/internal/sim"
)

// goldenRun is one recorded Config.Run: a description (or a built-in
// configuration ID), a parameter vector and the IEEE-754 bits of each
// return value.
type goldenRun struct {
	Name string    `json:"name"`
	DSL  string    `json:"dsl,omitempty"`
	ID   int       `json:"id,omitempty"`
	T    []float64 `json:"t"`
	Bits []string  `json:"bits"`
}

// TestGoldenRuns pins Config.Run of the SINAD configuration (#6) and of
// every stimulus/return pair checkCompat allows — other nodes, sine
// amplitudes, step timings and parameter orders included — at the seeds
// and at an off-seed point, to the bits recorded
// (testdata/golden_runs.json) while SINAD and the descriptions still ran
// hand-written simulations of their own. Running them on the built-in
// simulate steps must not move a bit, and a retained evaluator must
// reproduce them after a run at another point.
func TestGoldenRuns(t *testing.T) {
	b, err := os.ReadFile("testdata/golden_runs.json")
	if err != nil {
		t.Fatal(err)
	}
	var runs []goldenRun
	if err := json.Unmarshal(b, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 24 {
		t.Fatalf("%d golden runs, want 24", len(runs))
	}
	ckt := macros.IVConverter()
	for _, g := range runs {
		c := ByID(ExtendedIVConfigs(), g.ID)
		if g.DSL != "" {
			if c, err = ParseConfigString(g.DSL); err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
		}
		got, err := c.Run(ckt, g.T)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if s := bitsOf(got); fmt.Sprint(s) != fmt.Sprint(g.Bits) {
			t.Errorf("%s at %v: bits %v, recorded %v", g.Name, g.T, s, g.Bits)
		}
		ev, err := c.Prepare(ckt, sim.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if ev.HasWarm() {
			t.Errorf("%s: a warm recipe outside the built-in DC analysis", g.Name)
		}
		if _, err := ev.Run(perturbSeeds(c)); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		again, err := ev.Run(g.T)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if s := bitsOf(again); fmt.Sprint(s) != fmt.Sprint(g.Bits) {
			t.Errorf("%s at %v: retained evaluator bits %v, recorded %v", g.Name, g.T, s, g.Bits)
		}
	}
}

func bitsOf(r []float64) []string {
	s := make([]string, len(r))
	for i, v := range r {
		s[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return s
}
