package testcfg

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/macros"
	"repro/internal/sim"
)

// TestPreparedBitIdentical: for every built-in configuration, a retained
// evaluator's cold Run must reproduce Config.Run bit for bit, including
// across repeated calls at varying parameters (the retained engine must
// not leak state between evaluations).
func TestPreparedBitIdentical(t *testing.T) {
	ckt := macros.IVConverter()
	for _, c := range IVConfigs() {
		ev, err := c.Prepare(ckt, sim.DefaultOptions())
		if err != nil {
			t.Fatalf("config #%d: %v", c.ID, err)
		}
		seeds := c.Seeds()
		// Two parameter points, revisiting the first to catch retained
		// state: slow path clones fresh every time.
		points := [][]float64{seeds, perturbSeeds(c), seeds}
		for pi, T := range points {
			got, err := ev.Run(T)
			if err != nil {
				t.Fatalf("config #%d point %d: evaluator: %v", c.ID, pi, err)
			}
			want, err := c.Run(ckt, T)
			if err != nil {
				t.Fatalf("config #%d point %d: throwaway: %v", c.ID, pi, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("config #%d point %d: r[%d] = %g, throwaway path %g — must be bit-identical",
						c.ID, pi, i, got[i], want[i])
				}
			}
		}
	}
}

// perturbSeeds nudges every parameter toward the middle of its box.
func perturbSeeds(c *Config) []float64 {
	T := c.Seeds()
	for i, p := range c.Params {
		T[i] = p.Lo + 0.5*(p.Hi-p.Lo)
	}
	return T
}

// TestPreparedWarmAgrees: the warm recipe of the OP configurations must
// agree with the exact one to solver tolerance, including when revisiting
// a parameter point from a different previous seed.
func TestPreparedWarmAgrees(t *testing.T) {
	ckt := macros.IVConverter()
	for _, c := range IVConfigs()[:2] {
		ev, err := c.Prepare(ckt, sim.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !ev.HasWarm() {
			t.Fatalf("config #%d: OP configuration without a warm recipe", c.ID)
		}
		for _, T := range [][]float64{c.Seeds(), perturbSeeds(c), c.Seeds()} {
			warm, err := ev.RunWarm(T)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := ev.Run(T)
			if err != nil {
				t.Fatal(err)
			}
			for i := range exact {
				if d := math.Abs(warm[i] - exact[i]); d > 1e-6*math.Max(1e-6, math.Abs(exact[i])) {
					t.Errorf("config #%d: warm r[%d] = %g, exact %g (diff %g)", c.ID, i, warm[i], exact[i], d)
				}
			}
		}
	}
}

// TestPreparedValidation: a custom configuration prepares, and its
// evaluator reproduces Run; the evaluator enforces the same parameter
// bounds as Config.Run.
func TestPreparedValidation(t *testing.T) {
	custom := NewCustom(99, "custom", []Param{{Name: "p", Lo: 0, Hi: 1, Seed: 0.5}}, nil,
		func(ckt *circuit.Circuit, T []float64) ([]float64, error) { return []float64{2 * T[0]}, nil })
	cev, err := custom.Prepare(macros.IVConverter(), sim.DefaultOptions())
	if err != nil {
		t.Fatalf("Prepare on a custom configuration: %v", err)
	}
	for _, T := range [][]float64{{0.5}, {0.25}} {
		got, err := cev.Run(T)
		if err != nil {
			t.Fatal(err)
		}
		want, err := custom.Run(macros.IVConverter(), T)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Errorf("custom evaluator at %v = %v, Run %v", T, got, want)
		}
	}

	c := IVConfigs()[0]
	ev, err := c.Prepare(macros.IVConverter(), sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run([]float64{1}); err == nil {
		t.Error("out-of-box parameter accepted")
	}
	if _, err := ev.Run([]float64{1e-6, 2e-6}); err == nil {
		t.Error("wrong-arity parameter vector accepted")
	}
	if _, err := ev.RunWarm([]float64{1}); err == nil {
		t.Error("out-of-box parameter accepted by RunWarm")
	}
}

// TestPreparedRunAllocs: after its first run a retained evaluator
// reuses its engine and, for the transient configurations, its trace,
// so a cold run allocates only a few small objects.
func TestPreparedRunAllocs(t *testing.T) {
	ckt := macros.IVConverter()
	cfgs := IVConfigs()
	for _, tc := range []struct {
		id  int
		max float64
	}{{1, 3}, {3, 8}, {4, 8}} {
		c := ByID(cfgs, tc.id)
		ev, err := c.Prepare(ckt, sim.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		T := c.Seeds()
		if _, err := ev.Run(T); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ev.Run(T); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("config #%d: %.0f allocations per retained run, want at most %.0f", tc.id, allocs, tc.max)
		}
		t.Logf("config #%d: %.0f allocations per retained run", tc.id, allocs)
	}
}
