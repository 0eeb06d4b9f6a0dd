package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestRecoverConvertsPanic(t *testing.T) {
	e := New(Options{Workers: 1})
	err := e.Recover(7, func() error { panic("device model blew up") })
	var pe *TaskPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Recover returned %v, want *TaskPanicError", err)
	}
	if pe.Index != 7 {
		t.Errorf("Index = %d, want 7", pe.Index)
	}
	if pe.Value != "device model blew up" {
		t.Errorf("Value = %v, want the panic value", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panic.go") && len(pe.Stack) == 0 {
		t.Error("Stack is empty")
	}
	if got := e.Metrics().TaskPanics; got != 1 {
		t.Errorf("TaskPanics = %d, want 1", got)
	}
}

func TestRecoverPassesThrough(t *testing.T) {
	e := New(Options{Workers: 1})
	want := errors.New("ordinary failure")
	if err := e.Recover(0, func() error { return want }); err != want {
		t.Errorf("Recover = %v, want %v", err, want)
	}
	if err := e.Recover(0, func() error { return nil }); err != nil {
		t.Errorf("Recover = %v, want nil", err)
	}
	if got := e.Metrics().TaskPanics; got != 0 {
		t.Errorf("TaskPanics = %d, want 0", got)
	}
}

// TestForEachPanicBecomesError checks the pool-level last-resort boundary:
// a panic escaping a task fails the run with a typed error instead of
// killing the process, across both the serial and parallel paths.
func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(Options{Workers: workers})
		err := e.ForEach(context.Background(), 16, func(ctx context.Context, i int) error {
			if i == 5 {
				panic("boom")
			}
			return nil
		})
		var pe *TaskPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: ForEach = %v, want *TaskPanicError", workers, err)
		}
		if pe.Index != 5 {
			t.Errorf("workers=%d: Index = %d, want 5", workers, pe.Index)
		}
	}
}

// TestForEachQuarantineViaRecover checks the caller-level isolation
// pattern the generation core uses: wrapping the task body in Recover and
// swallowing the TaskPanicError lets every other task complete.
func TestForEachQuarantineViaRecover(t *testing.T) {
	e := New(Options{Workers: 4})
	const n = 32
	var mu sync.Mutex
	done := make(map[int]bool)
	quarantined := make(map[int]bool)
	err := e.ForEach(context.Background(), n, func(ctx context.Context, i int) error {
		err := e.Recover(i, func() error {
			if i%10 == 3 {
				panic("injected")
			}
			return nil
		})
		var pe *TaskPanicError
		if errors.As(err, &pe) {
			mu.Lock()
			quarantined[i] = true
			mu.Unlock()
			return nil
		}
		if err != nil {
			return err
		}
		mu.Lock()
		done[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach = %v, want nil", err)
	}
	if len(quarantined) != 3 { // 3, 13, 23
		t.Errorf("quarantined %d tasks, want 3", len(quarantined))
	}
	if len(done)+len(quarantined) != n {
		t.Errorf("done=%d quarantined=%d, want them to cover all %d tasks", len(done), len(quarantined), n)
	}
}

// TestCachePanicUnblocksWaiters checks that a panic inside a cache compute
// resolves the single-flight entry with an error (waiters do not deadlock)
// and re-raises so the task boundary still sees the panic.
func TestCachePanicUnblocksWaiters(t *testing.T) {
	c := NewCache[[]float64](16, 1)
	entered := make(chan struct{})
	release := make(chan struct{})

	primaryDone := make(chan any, 1)
	go func() {
		defer func() { primaryDone <- recover() }()
		c.GetOrCompute("k", func() ([]float64, error) {
			close(entered)
			<-release
			panic("compute died")
		})
	}()

	<-entered
	waiterErr := make(chan error, 1)
	go func() {
		// Poll until the waiter actually joins the flight, then block on it.
		_, _, err := c.GetOrCompute("k", func() ([]float64, error) {
			// If the flight was already settled we recompute; that is fine —
			// return a value so this path is distinguishable.
			return []float64{1}, nil
		})
		waiterErr <- err
	}()
	close(release)

	if r := <-primaryDone; r != "compute died" {
		t.Fatalf("primary recover = %v, want the original panic value", r)
	}
	if err := <-waiterErr; err != nil && !strings.Contains(err.Error(), "panicked") {
		t.Errorf("waiter error = %v, want nil (recomputed) or a panicked-flight error", err)
	}

	// The flight must be gone: a later caller recomputes successfully.
	v, hit, err := c.GetOrCompute("k", func() ([]float64, error) { return []float64{42}, nil })
	if err != nil || hit && v == nil {
		t.Fatalf("post-panic GetOrCompute = (%v, %v, %v), want a usable value", v, hit, err)
	}
}
