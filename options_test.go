package repro

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFunctionalOptions: the new constructor shape must work and the
// options must land in the session behavior (seed boxes build fast and
// the system is usable end to end).
func TestFunctionalOptions(t *testing.T) {
	sys, err := NewIVConverterSystem(
		WithFastBoxes(),
		WithWorkers(2),
		WithImpactRange(1, 1e9),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Configs()) != 5 || len(sys.Faults()) != 55 {
		t.Fatalf("system shape: %d configs, %d faults", len(sys.Configs()), len(sys.Faults()))
	}
	f := sys.Faults()[0]
	if _, err := sys.Sensitivity(0, f, []float64{20e-6}); err != nil {
		t.Fatal(err)
	}
}

func TestErrNoConfigsSentinel(t *testing.T) {
	_, err := NewSystem(NewIVConverter(), nil)
	if !errors.Is(err, ErrNoConfigs) {
		t.Fatalf("err = %v, want errors.Is(_, ErrNoConfigs)", err)
	}
}

// TestGenerateAllContextCancellation: a canceled context must abort
// generation promptly with ErrCanceled (and context.Canceled) visible
// through errors.Is at the facade.
func TestGenerateAllContextCancellation(t *testing.T) {
	sys, err := NewIVConverterSystem(WithFastBoxes(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = sys.GenerateAllContext(ctx, sys.Faults())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("canceled generation still took %v", d)
	}
}

// TestSystemMetrics: the facade must expose engine metrics with cache
// activity after real work.
func TestSystemMetrics(t *testing.T) {
	sys, err := NewIVConverterSystem(WithFastBoxes(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Generate(sys.Faults()[0]); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if m.Phase(PhaseOptimize).Count == 0 {
		t.Error("optimize phase not observed")
	}
	if m.Cache.Misses == 0 {
		t.Error("cache shows no activity")
	}
	if m.Cache.HitRate() < 0 || m.Cache.HitRate() > 1 {
		t.Errorf("hit rate %g out of range", m.Cache.HitRate())
	}
}
