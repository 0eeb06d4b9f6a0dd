package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache is a sharded, size-bounded, single-flight memo for simulation
// responses: the engine's nominal cache (quantized parameter keys,
// response vectors) and the session's analysis memo (exact keys, one
// response per configuration of a group) are both Caches. Sharding by
// FNV-1a hash replaces the single global mutex the nominal cache used to
// serialize on; single-flight guarantees that concurrent misses on the
// same key run the underlying simulation once, with every waiter sharing
// the result.
type Cache[V any] struct {
	shards []cacheShard[V]
	mask   uint32
	// perShard bounds the entry count of each shard; a full shard evicts
	// an arbitrary entry before inserting.
	perShard int

	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64
	evictions atomic.Int64
}

type cacheShard[V any] struct {
	mu      sync.Mutex
	entries map[string]V
	flights map[string]*flight[V]
}

// flight is one in-progress computation; waiters block on wg, which
// the computing caller releases once val and err are set. A WaitGroup
// inside the flight, unlike a channel, costs no allocation of its own.
type flight[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// NewCache builds a cache with the given total entry bound and shard
// count (both defaulted when <= 0; shards rounds up to a power of two).
func NewCache[V any](entries, shards int) *Cache[V] {
	if entries <= 0 {
		entries = 65536
	}
	if shards <= 0 {
		shards = 32
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := entries / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{shards: make([]cacheShard[V], n), mask: uint32(n - 1), perShard: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]V)
		c.shards[i].flights = make(map[string]*flight[V])
	}
	return c
}

// fnv32a is FNV-1a over the key, inlined to keep the shard lookup
// allocation-free (hash/fnv would heap-allocate a hasher per call).
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func (c *Cache[V]) shard(key string) *cacheShard[V] {
	return &c.shards[fnv32a(key)&c.mask]
}

// GetOrCompute returns the cached value for key, or runs compute exactly
// once (across all concurrent callers of the same key) to produce it.
// hit reports whether the value was served without this caller invoking
// compute — either straight from the memo or by joining another caller's
// in-flight computation. Errors are not cached: a failed computation is
// retried by the next caller.
//
// A panic inside compute is fatal to the calling task only: the in-flight
// entry is resolved with an error before the panic is re-raised, so
// goroutines that joined the flight unblock with that error instead of
// waiting forever on a flight nobody will release.
func (c *Cache[V]) GetOrCompute(key string, compute func() (V, error)) (val V, hit bool, err error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if v, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if fl, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		c.shared.Add(1)
		fl.wg.Wait()
		if fl.err != nil {
			return val, false, fl.err
		}
		return fl.val, true, nil
	}
	fl := &flight[V]{}
	fl.wg.Add(1)
	sh.flights[key] = fl
	sh.mu.Unlock()
	c.misses.Add(1)

	panicked := true
	defer func() {
		if !panicked {
			return
		}
		// compute panicked: settle the flight so waiters unblock, then let
		// the panic continue to the task-level recovery boundary.
		fl.err = fmt.Errorf("engine: cache compute for key %q panicked", key)
		sh.mu.Lock()
		delete(sh.flights, key)
		sh.mu.Unlock()
		fl.wg.Done()
	}()
	fl.val, fl.err = compute()
	panicked = false

	sh.mu.Lock()
	delete(sh.flights, key)
	if fl.err == nil {
		if len(sh.entries) >= c.perShard {
			for k := range sh.entries {
				delete(sh.entries, k)
				c.evictions.Add(1)
				break
			}
		}
		sh.entries[key] = fl.val
	}
	sh.mu.Unlock()
	fl.wg.Done()
	return fl.val, false, fl.err
}

// Len returns the current number of cached entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	// Hits counts lookups served from the memo.
	Hits int64
	// Misses counts lookups that ran the computation.
	Misses int64
	// Shared counts lookups that joined another caller's in-flight
	// computation instead of duplicating it.
	Shared int64
	// Evictions counts entries dropped by the size bound.
	Evictions int64
	// Entries is the current cached entry count.
	Entries int
}

// HitRate returns the fraction of lookups served without a fresh
// computation (hits plus shared flights over all lookups).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Shared
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
