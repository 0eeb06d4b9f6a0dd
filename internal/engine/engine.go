// Package engine is the shared concurrent evaluation substrate of the
// test generator. It owns the three concerns every parallel workload in
// internal/core used to reimplement ad hoc:
//
//   - a work-stealing worker pool over index spans with full
//     context.Context cancellation (ForEach),
//   - a sharded, size-bounded, single-flight response cache (Cache),
//   - per-phase wall-clock/counter observability (Metrics).
//
// The paper's own cost metric is simulation count ("global optimization
// requires a much larger amount of simulations which we consider
// unacceptable"); the engine makes that cost observable and spends it on
// all cores without a global lock on the hot cache path.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/obs"
)

// fpTaskStart fires at the top of every pool task, inside the Recover
// boundary. Arm it with a panic to exercise quarantine, or with a sleep
// to wedge a task and exercise the core's stall watchdog. An injected
// error becomes the task's error like any fn failure.
var fpTaskStart = failpoint.At("engine.task.start")

// ErrCanceled is returned (wrapped) by ForEach when the caller's context
// is canceled or its deadline expires before all tasks have run.
var ErrCanceled = errors.New("engine: evaluation canceled")

// Options tunes a new Engine. The zero value is usable: every field has
// a sensible default.
type Options struct {
	// Workers bounds the parallelism of ForEach. Default (and any value
	// <= 0): runtime.GOMAXPROCS(0).
	Workers int
}

// cacheEntries bounds the total number of cached responses across all
// shards of the engine's cache; the bound is approximate, enforced per
// shard. cacheShards is its shard count: more shards mean less lock
// contention.
const (
	cacheEntries = 1 << 16
	cacheShards  = 32
)

// Engine is a reusable evaluation substrate: a worker pool, a response
// cache and a metrics registry. An Engine is safe for concurrent use.
type Engine struct {
	workers int
	cache   *Cache[[]float64]
	phases  sync.Map // string -> *phase
	tracer  atomic.Pointer[obs.Tracer]
	panics  atomic.Int64
}

// SetTracer registers a span tracer. When set, ForEach opens one
// "engine.task" span per task (worker and index attributes), and the
// task's fn runs under a context carrying that span so nested spans
// parent correctly. Passing nil disables tracing; a disabled pool pays
// one atomic load per ForEach call.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer.Store(t) }

// New returns an engine with the given options.
func New(o Options) *Engine {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: o.Workers,
		cache:   NewCache[[]float64](cacheEntries, cacheShards),
	}
}

// Workers returns the pool's parallelism bound.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's sharded response cache.
func (e *Engine) Cache() *Cache[[]float64] { return e.cache }

// span is a contiguous index range owned by one worker. The owner pops
// from the front, thieves steal from the back, so owner and thief only
// contend on the last few indices of a span.
type span struct {
	mu     sync.Mutex
	lo, hi int
}

// pop takes the next index from the front of the span.
func (s *span) pop() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lo >= s.hi {
		return 0, false
	}
	i := s.lo
	s.lo++
	return i, true
}

// steal takes an index from the back of the span.
func (s *span) steal() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lo >= s.hi {
		return 0, false
	}
	s.hi--
	return s.hi, true
}

// ForEach runs fn(ctx, i) for every i in [0, n) on up to Workers()
// goroutines with work stealing: indices are split into per-worker
// spans, and a worker whose span drains steals from the back of its
// peers' spans, so uneven task costs (a THD transient next to a cheap DC
// point) still keep every core busy.
//
// The first error returned by fn cancels the remaining tasks and is
// returned. If ctx is canceled (or its deadline expires) before all
// tasks complete, ForEach stops promptly and returns an error wrapping
// both ErrCanceled and ctx.Err().
func (e *Engine) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	tr := e.tracer.Load()
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w: %w", ErrCanceled, err)
			}
			if err := e.runTask(tr, ctx, fn, i, 0); err != nil {
				return err
			}
		}
		return nil
	}

	// Split [0, n) into one span per worker (first n%workers spans get
	// one extra index).
	spans := make([]*span, workers)
	chunk, rem := n/workers, n%workers
	lo := 0
	for w := range spans {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		spans[w] = &span{lo: lo, hi: hi}
		lo = hi
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if runCtx.Err() != nil {
					return
				}
				i, ok := spans[w].pop()
				if !ok {
					// Own span drained: steal from peers, starting at the
					// next worker to spread thieves across victims.
					for d := 1; d < workers && !ok; d++ {
						i, ok = spans[(w+d)%workers].steal()
					}
					if !ok {
						return
					}
				}
				if err := e.runTask(tr, runCtx, fn, i, w); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// runTask executes fn(ctx, i), wrapped in an "engine.task" span when a
// tracer is registered. The span rides the context into fn, so spans
// opened inside the task nest under it.
//
// A panic escaping fn is recovered into a *TaskPanicError and returned as
// the task's error: the pool never lets a single task kill the process.
// Callers that want to *survive* the panic (quarantine the task and keep
// the run going) additionally wrap their task body in Engine.Recover,
// which catches the panic before it reaches this last-resort boundary.
func (e *Engine) runTask(tr *obs.Tracer, ctx context.Context, fn func(context.Context, int) error, i, w int) error {
	if tr == nil {
		return e.Recover(i, func() error {
			if err := fpTaskStart.Hit(); err != nil {
				return err
			}
			return fn(ctx, i)
		})
	}
	tctx, sp := tr.Start(ctx, "engine.task", obs.Int("index", i), obs.Int("worker", w))
	err := e.Recover(i, func() error {
		if err := fpTaskStart.Hit(); err != nil {
			return err
		}
		return fn(tctx, i)
	})
	if err != nil {
		sp.End(obs.String("error", err.Error()))
	} else {
		sp.End()
	}
	return err
}
