package engine

import (
	"fmt"
	"sync"
	"testing"
)

// benchKeys pre-computes a working set of keys and values.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("0|%de-06", i)
	}
	return keys
}

// BenchmarkCacheHitParallelSharded is the engine's sharded single-flight
// cache on the pure hit path under full parallelism.
func BenchmarkCacheHitParallelSharded(b *testing.B) {
	c := NewCache[[]float64](1<<16, 32)
	keys := benchKeys(256)
	for _, k := range keys {
		_, _, _ = c.GetOrCompute(k, func() ([]float64, error) { return []float64{1}, nil })
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := c.GetOrCompute(keys[i%len(keys)], nil); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkCacheHitParallelGlobalMutex reproduces the pre-engine design
// — one map guarded by one sync.Mutex — as the contention baseline the
// sharded cache replaces.
func BenchmarkCacheHitParallelGlobalMutex(b *testing.B) {
	var mu sync.Mutex
	m := make(map[string][]float64)
	keys := benchKeys(256)
	for _, k := range keys {
		m[k] = []float64{1}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mu.Lock()
			v := m[keys[i%len(keys)]]
			mu.Unlock()
			if v == nil {
				b.Fatal("miss")
			}
			i++
		}
	})
}
