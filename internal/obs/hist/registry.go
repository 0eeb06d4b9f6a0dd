package hist

import (
	"sort"
	"sync"
)

// Registry is a small named-histogram collection: the job server keeps
// one for its per-route HTTP timings. Get is cheap enough for
// per-observation lookup (a read lock and a map probe, off the record
// path's inner loops), but hot sites should hold the *Histogram.
//
// A nil *Registry is the disabled registry: Get returns the nil
// histogram (whose Record is a no-op) and Snapshot returns nothing.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*Histogram)}
}

// Get returns the named histogram, creating it on first use.
func (r *Registry) Get(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.m[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.m[name]; h == nil {
		h = New()
		r.m[name] = h
	}
	return h
}

// Observe records v into the named histogram (creating it on first
// use) — the convenience form for cold call sites.
func (r *Registry) Observe(name string, v int64) { r.Get(name).Record(v) }

// NamedSnapshot pairs a histogram snapshot with its registry name.
type NamedSnapshot struct {
	Name string
	Snapshot
}

// Snapshot captures every histogram in the registry, sorted by name.
func (r *Registry) Snapshot() []NamedSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]NamedSnapshot, 0, len(r.m))
	for name, h := range r.m {
		out = append(out, NamedSnapshot{Name: name, Snapshot: h.Snapshot()})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
