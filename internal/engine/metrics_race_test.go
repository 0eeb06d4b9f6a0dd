package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsSnapshotWhileRunning hammers Metrics() snapshots against
// concurrent phase observations, cache traffic and traced ForEach
// tasks. All engine counters are atomics and Metrics copies on read, so
// under -race this must be silent — the snapshot-while-running
// guarantee of the observability layer.
func TestMetricsSnapshotWhileRunning(t *testing.T) {
	e := New(Options{Workers: 4})
	col := &obs.Collector{}
	e.SetTracer(obs.New(col))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m := e.Metrics()
					_ = m.Phase("work").Avg()
					_ = m.Cache.HitRate()
					_ = m.Solver.Solves
				}
			}
		}()
	}

	for round := 0; round < 25; round++ {
		err := e.ForEach(context.Background(), 64, func(ctx context.Context, k int) error {
			e.Observe("work", time.Microsecond)
			key := fmt.Sprintf("k%d", k%16)
			_, _, err := e.Cache().GetOrCompute(key, func() ([]float64, error) {
				return []float64{float64(k)}, nil
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	m := e.Metrics()
	if got := m.Phase("work").Count; got != 25*64 {
		t.Errorf("work units = %d, want %d", got, 25*64)
	}
	if m.Cache.Hits+m.Cache.Misses+m.Cache.Shared != 25*64 {
		t.Errorf("cache lookups = %d, want %d",
			m.Cache.Hits+m.Cache.Misses+m.Cache.Shared, 25*64)
	}
}

// TestTracerSwapWhileRunning: SetTracer mid-flight must not race with
// workers loading the tracer pointer.
func TestTracerSwapWhileRunning(t *testing.T) {
	e := New(Options{Workers: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if i%2 == 0 {
					e.SetTracer(obs.New(&obs.Collector{}))
				} else {
					e.SetTracer(nil)
				}
			}
		}
	}()
	for round := 0; round < 25; round++ {
		err := e.ForEach(context.Background(), 32, func(ctx context.Context, k int) error {
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
