package tolerance

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/macros"
	"repro/internal/sim"
	"repro/internal/wave"
)

// dcVoutRunner measures V(Vout) at a fixed DC input, the simplest
// configuration-like measurement for tolerance tests.
func dcVoutRunner() func(*circuit.Circuit) ([]float64, error) {
	return func(ck *circuit.Circuit) ([]float64, error) {
		cc := ck.Clone()
		macros.SetInputWave(cc, wave.DC(20e-6))
		e, err := sim.New(cc, sim.DefaultOptions())
		if err != nil {
			return nil, err
		}
		x, err := e.OperatingPoint()
		if err != nil {
			return nil, err
		}
		return []float64{e.Voltage(x, macros.NodeVout)}, nil
	}
}

func TestSpreadSampleBounded(t *testing.T) {
	sp := DefaultSpread()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		k := sp.Sample(rng)
		if math.Abs(k.KPScale-1) > 3*sp.KPSigma+1e-12 {
			t.Fatalf("KP sample %g beyond 3σ truncation", k.KPScale)
		}
		if math.Abs(k.VTShift) > 3*sp.VTSigma+1e-12 {
			t.Fatalf("VT sample %g beyond 3σ truncation", k.VTShift)
		}
		if k.RScale <= 0 || k.CScale <= 0 {
			t.Fatal("non-positive passive scaling sampled")
		}
	}
}

func TestSpreadSpeedCorrelation(t *testing.T) {
	// Faster silicon (higher KP) must come with lower |VT| shift for
	// NMOS: KPScale > 1 pairs with VTShift < 0 on average.
	sp := DefaultSpread()
	rng := rand.New(rand.NewSource(2))
	agree := 0
	n := 1000
	for i := 0; i < n; i++ {
		k := sp.Sample(rng)
		if (k.KPScale-1)*k.VTShift < 0 {
			agree++
		}
	}
	if agree < n*9/10 {
		t.Errorf("speed correlation held in only %d/%d samples", agree, n)
	}
}

func TestMonteCarloDeviationBasics(t *testing.T) {
	golden := macros.IVConverter()
	dev, err := MonteCarloDeviation(golden, DefaultSpread(), 6, 11, dcVoutRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(dev) != 1 || dev[0] <= 0 {
		t.Fatalf("deviation = %v", dev)
	}
	// More samples can only widen (or keep) the max deviation with the
	// same seed stream prefix... different streams, so instead check the
	// magnitude stays in a plausible band vs the corner estimate.
	if dev[0] > 1 {
		t.Errorf("MC deviation %g V implausibly large", dev[0])
	}
}

func TestMonteCarloDeviationErrors(t *testing.T) {
	golden := macros.IVConverter()
	if _, err := MonteCarloDeviation(golden, DefaultSpread(), 0, 1, dcVoutRunner()); err == nil {
		t.Error("n=0 accepted")
	}
	boom := errors.New("boom")
	bad := func(*circuit.Circuit) ([]float64, error) { return nil, boom }
	if _, err := MonteCarloDeviation(golden, DefaultSpread(), 3, 1, bad); !errors.Is(err, boom) {
		t.Error("runner error not propagated")
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	golden := macros.IVConverter()
	a, err := MonteCarloDeviation(golden, DefaultSpread(), 5, 77, dcVoutRunner())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloDeviation(golden, DefaultSpread(), 5, 77, dcVoutRunner())
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("same seed, different deviations: %g vs %g", a[0], b[0])
	}
}
