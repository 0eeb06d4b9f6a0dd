package server

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Hub fans a job's journal records out to the subscribed SSE streams.
// It is the journal's tee (obs.Journal.Tee), so a stream carries the
// journal's own lines, in journal order. Publish never blocks the
// producing run — a subscriber that stops draining loses records (its
// channel buffer overflows and records are dropped), which is the right
// trade for a monitoring stream riding on top of the authoritative
// journal file. Dropped records are counted (Dropped), so a lossy
// stream is visible in the job status instead of silently incomplete.
type Hub struct {
	mu      sync.Mutex
	subs    map[chan frame]struct{}
	closed  bool
	dropped atomic.Uint64
}

// frame is one journal record on its way to the SSE streams: the record
// type names the SSE event, the line is its data.
type frame struct {
	typ  string
	line []byte
}

// NewHub returns an open hub with no subscribers.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan frame]struct{})}
}

// Publish broadcasts one journal record line. The hub copies the line
// once when someone subscribes and shares the copy among the streams.
func (h *Hub) Publish(typ string, line []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	fr := frame{typ: typ, line: bytes.Clone(line)}
	for ch := range h.subs {
		select {
		case ch <- fr:
		default:
			// Slow subscriber: drop, never block the run.
			h.dropped.Add(1)
		}
	}
}

// Dropped returns the number of records lost to slow subscribers over
// the hub's lifetime.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// Subscribe registers a buffered record stream and returns it with its
// cancel function. On a closed hub the returned channel is already
// closed (the job is over; the journal file has the full record).
func (h *Hub) Subscribe(buf int) (<-chan frame, func()) {
	if buf <= 0 {
		buf = 256
	}
	ch := make(chan frame, buf)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	return ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}
}

// Close seals the hub: all subscriber channels are closed (ending their
// SSE streams) and later records are dropped.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}
