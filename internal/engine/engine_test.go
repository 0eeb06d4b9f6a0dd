package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	e := New(Options{Workers: 7})
	const n = 1000
	var counts [n]atomic.Int32
	err := e.ForEach(context.Background(), n, func(_ context.Context, i int) error {
		counts[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, c)
		}
	}
}

func TestForEachStealsSkewedWork(t *testing.T) {
	// The first span gets all the slow tasks; without stealing the run
	// would serialize on worker 0.
	e := New(Options{Workers: 4})
	var slow, total atomic.Int32
	err := e.ForEach(context.Background(), 64, func(_ context.Context, i int) error {
		total.Add(1)
		if i < 16 { // worker 0's span
			slow.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 64 || slow.Load() != 16 {
		t.Fatalf("ran %d tasks (%d slow), want 64 (16)", total.Load(), slow.Load())
	}
}

func TestForEachFirstErrorCancelsRest(t *testing.T) {
	e := New(Options{Workers: 4})
	boom := errors.New("boom")
	var after atomic.Int32
	err := e.ForEach(context.Background(), 400, func(ctx context.Context, i int) error {
		if i == 3 {
			return fmt.Errorf("task %d: %w", i, boom)
		}
		if ctx.Err() != nil {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestForEachCanceledContextReturnsPromptly(t *testing.T) {
	e := New(Options{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	start := time.Now()
	err := e.ForEach(ctx, 1000, func(_ context.Context, i int) error {
		ran.Add(1)
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to also wrap context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran despite pre-canceled context", ran.Load())
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("took %v to notice cancellation", d)
	}
}

func TestForEachMidRunCancellation(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := e.ForEach(ctx, 500, func(_ context.Context, i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := ran.Load(); n >= 500 {
		t.Errorf("all %d tasks ran despite mid-run cancel", n)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache[[]float64](1024, 8)
	var computes atomic.Int32
	var wg sync.WaitGroup
	const callers = 32
	release := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute("key", func() ([]float64, error) {
				computes.Add(1)
				<-release
				return []float64{42}, nil
			})
			if err != nil || v[0] != 42 {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	// Give every caller time to reach the cache before releasing the
	// one in-flight computation.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times for one key, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Shared+st.Hits != callers-1 {
		t.Errorf("shared %d + hits %d, want %d", st.Shared, st.Hits, callers-1)
	}
}

func TestCacheConcurrentShards(t *testing.T) {
	// Hammer many keys from many goroutines under -race: every lookup
	// must return the right value and the counters must balance.
	c := NewCache[[]float64](1<<14, 16)
	const keys = 200
	var wg sync.WaitGroup
	var lookups atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("k%03d", (k+g*7)%keys)
					want := float64((k + g*7) % keys)
					v, _, err := c.GetOrCompute(key, func() ([]float64, error) {
						return []float64{want}, nil
					})
					lookups.Add(1)
					if err != nil || v[0] != want {
						t.Errorf("key %s: got %v, %v", key, v, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.Shared != lookups.Load() {
		t.Errorf("counters %d+%d+%d don't add up to %d lookups",
			st.Hits, st.Misses, st.Shared, lookups.Load())
	}
	if st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
}

func TestCacheSizeBound(t *testing.T) {
	c := NewCache[[]float64](64, 4) // 16 entries per shard
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.GetOrCompute(key, func() ([]float64, error) {
			return []float64{float64(i)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > 64 {
		t.Errorf("cache grew to %d entries, bound is 64", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("no evictions recorded despite overflow")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache[[]float64](64, 4)
	calls := 0
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, _, err := c.GetOrCompute("k", func() ([]float64, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("failed computation retried %d times, want 2 (errors must not be cached)", calls)
	}
}

func TestMetricsPhases(t *testing.T) {
	e := New(Options{})
	e.Observe("alpha", 10*time.Millisecond)
	e.Observe("alpha", 30*time.Millisecond)
	e.Observe("beta", 5*time.Millisecond)
	m := e.Metrics()
	a := m.Phase("alpha")
	if a.Count != 2 || a.Wall != 40*time.Millisecond || a.Avg() != 20*time.Millisecond {
		t.Errorf("alpha stats = %+v", a)
	}
	if len(m.Phases) != 2 || m.Phases[0].Name != "alpha" {
		t.Errorf("phases not sorted by wall time: %+v", m.Phases)
	}
	if z := m.Phase("gamma"); z.Count != 0 || z.Name != "gamma" {
		t.Errorf("unknown phase = %+v", z)
	}
}
