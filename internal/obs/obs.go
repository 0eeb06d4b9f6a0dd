// Package obs is the observability layer of the test generator: a
// zero-dependency span tracer, a JSONL run journal, and a live progress
// tracker. It sits below every other internal package (obs imports only
// the standard library), so the engine, the generation core, the
// optimizers and the simulation kernel can all emit into one run record
// without import cycles.
//
// The design goal is that a disabled tracer costs a nil check: all
// Tracer and Progress methods are safe (and free) on a nil receiver, so
// instrumented code calls them unconditionally.
//
// The event vocabulary is deliberately small — run_start / span_start /
// span_end / event / run_end / run_canceled — and every record carries a
// monotonic timestamp (nanoseconds since the tracer's epoch, taken from
// the runtime's monotonic clock). The journal schema is versioned (see
// SchemaVersion) so later extensions can evolve it without breaking
// readers.
package obs

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// SchemaVersion is the journal schema version stamped into the run_start
// record. Readers should reject journals with a greater major version.
//
// Version history:
//
//	1 — initial schema (run/span/event records).
//	2 — fault-tolerant runtime events: "quarantine", "retry",
//	    "checkpoint_write", "resume", and a "verdict" attribute on
//	    "fault_verdict". Purely additive; v1 readers that ignore unknown
//	    event names can still consume v2 journals.
//	3 — resource-governance events: "breaker_trip", "breaker_reset"
//	    (no longer emitted), and a "reason" attribute on "quarantine"
//	    ("panic" or "stalled"). Purely additive over v2.
//	4 — distributed-execution events: "worker_join", "worker_lost",
//	    "shard_assign", "shard_done", "shard_requeue", plus a "shard"
//	    attribute on records stitched in from worker journals. Purely
//	    additive over v3.
const SchemaVersion = 4

// Record types of the journal schema (Event.Type).
const (
	// TypeRunStart opens a run; it carries the schema version and run
	// attributes and must be the first record of a journal.
	TypeRunStart = "run_start"
	// TypeSpanStart opens a span (Span and optional Parent IDs).
	TypeSpanStart = "span_start"
	// TypeSpanEnd closes a span; Dur is the span's wall time.
	TypeSpanEnd = "span_end"
	// TypeEvent is a point event (optionally parented to a span).
	TypeEvent = "event"
	// TypeRunEnd terminates a completed run; it must be the last record.
	TypeRunEnd = "run_end"
	// TypeRunCanceled terminates a canceled run. Spans still open at
	// this record are permitted: the journal is truncated but valid.
	TypeRunCanceled = "run_canceled"
)

// Event is one journal record. The zero values of optional fields are
// omitted from the JSON encoding, keeping journal lines compact.
type Event struct {
	// TS is nanoseconds since the tracer's epoch (monotonic clock).
	TS int64 `json:"ts"`
	// Type is one of the Type... constants.
	Type string `json:"type"`
	// Name is the span or event name ("optimize", "cache_hit", ...).
	Name string `json:"name,omitempty"`
	// Span is the span ID for span_start/span_end, or the enclosing span
	// for parented point events.
	Span uint64 `json:"span,omitempty"`
	// Parent is the enclosing span's ID on span_start records.
	Parent uint64 `json:"parent,omitempty"`
	// Dur is the span wall time in nanoseconds on span_end records (and
	// on retrospective spans written by Tracer.Complete).
	Dur int64 `json:"dur_ns,omitempty"`
	// V is the schema version; only stamped on run_start.
	V int `json:"v,omitempty"`
	// Attrs carries the record's key/value attributes.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Sink receives events from a tracer. Implementations must be safe for
// concurrent use; the Journal is the production sink, Collector the
// in-memory one for tests.
type Sink interface {
	Emit(Event)
}

// Attr is one key/value attribute of a span or event.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an int attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// I64 returns an int64 attribute.
func I64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// F64 returns a float64 attribute.
func F64(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool returns a bool attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Any returns an attribute with an arbitrary JSON-marshalable value.
func Any(k string, v any) Attr { return Attr{Key: k, Value: v} }

// attrMap folds attributes into the Event.Attrs map (nil when empty).
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// Tracer assigns span IDs and emits events into a sink. A nil *Tracer is
// the disabled tracer: every method is a no-op behind a nil check, so
// instrumentation sites need no conditionals. A Tracer is safe for
// concurrent use when its sink is.
type Tracer struct {
	sink  Sink
	epoch time.Time
	ids   atomic.Uint64
	// sampleEvery keeps one in every n spans (1 = keep all). Point
	// events and run records are never sampled out.
	sampleEvery uint64
	finished    atomic.Bool
}

// TracerOption tunes a tracer at construction.
type TracerOption func(*Tracer)

// SampleEvery keeps one in every n spans (n <= 1 keeps all). Sampled-out
// spans cost one atomic increment and emit nothing; their children
// re-parent to the nearest kept ancestor.
func SampleEvery(n int) TracerOption {
	return func(t *Tracer) {
		if n < 1 {
			n = 1
		}
		t.sampleEvery = uint64(n)
	}
}

// New returns a tracer emitting into sink and writes the run_start
// record (schema version plus the given run attributes). The tracer's
// epoch — the zero of every timestamp — is the moment of this call.
func New(sink Sink, attrs ...Attr) *Tracer {
	return NewWith(sink, attrs, nil)
}

// NewWith is New with tracer options.
func NewWith(sink Sink, attrs []Attr, opts []TracerOption) *Tracer {
	t := &Tracer{sink: sink, epoch: time.Now(), sampleEvery: 1}
	for _, o := range opts {
		o(t)
	}
	t.sink.Emit(Event{TS: 0, Type: TypeRunStart, V: SchemaVersion, Attrs: attrMap(attrs)})
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// now returns nanoseconds since the epoch on the monotonic clock.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Span is an in-flight span handle. The zero Span (from a nil or
// sampled-out tracer) ends as a no-op.
type Span struct {
	t     *Tracer
	id    uint64
	name  string
	start int64
}

// ID returns the span's journal ID (0 for a dropped span).
func (s Span) ID() uint64 { return s.id }

// ctxKey carries the enclosing span ID through a context.
type ctxKey struct{}

// SpanFromContext returns the enclosing span ID recorded in ctx (0 when
// none).
func SpanFromContext(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(ctxKey{}).(uint64)
	return id
}

// Start opens a span named name, parented to the span recorded in ctx
// (if any), and returns a derived context carrying the new span for
// children. On a nil tracer it returns ctx unchanged and a no-op span;
// on a sampled-out span it returns ctx unchanged (children re-parent to
// the nearest kept ancestor) and a no-op span.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, Span) {
	if t == nil {
		return ctx, Span{}
	}
	id := t.ids.Add(1)
	if t.sampleEvery > 1 && id%t.sampleEvery != 0 {
		return ctx, Span{}
	}
	start := t.now()
	t.sink.Emit(Event{
		TS:     start,
		Type:   TypeSpanStart,
		Name:   name,
		Span:   id,
		Parent: SpanFromContext(ctx),
		Attrs:  attrMap(attrs),
	})
	return context.WithValue(ctx, ctxKey{}, id), Span{t: t, id: id, name: name, start: start}
}

// End closes the span, attaching any final attributes (results: the
// optimized S_f, the eviction count, ...).
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	now := s.t.now()
	s.t.sink.Emit(Event{
		TS:    now,
		Type:  TypeSpanEnd,
		Name:  s.name,
		Span:  s.id,
		Dur:   now - s.start,
		Attrs: attrMap(attrs),
	})
}

// Event records a point event parented to the span in ctx (if any).
func (t *Tracer) Event(ctx context.Context, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{
		TS:    t.now(),
		Type:  TypeEvent,
		Name:  name,
		Span:  SpanFromContext(ctx),
		Attrs: attrMap(attrs),
	})
}

// Emit records an unparented point event — the variant for call sites
// without a context (the nominal-cache hit path).
func (t *Tracer) Emit(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{TS: t.now(), Type: TypeEvent, Name: name, Attrs: attrMap(attrs)})
}

// Complete records a retrospective span of duration d ending now — the
// shape the simulation kernel's per-analysis hook uses, where the span
// is only known once the analysis returns. Retrospective spans respect
// sampling and are unparented.
func (t *Tracer) Complete(name string, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	if t.sampleEvery > 1 && id%t.sampleEvery != 0 {
		return
	}
	now := t.now()
	start := now - int64(d)
	if start < 0 {
		start = 0
	}
	t.sink.Emit(Event{TS: start, Type: TypeSpanStart, Name: name, Span: id})
	t.sink.Emit(Event{TS: now, Type: TypeSpanEnd, Name: name, Span: id, Dur: int64(d), Attrs: attrMap(attrs)})
}

// Finish writes the terminal record: run_canceled when err wraps a
// context cancellation (or deadline expiry), run_end otherwise. The
// attributes typically carry the final metrics snapshot. Finish is
// idempotent — only the first call emits — so error paths can call it
// defensively.
func (t *Tracer) Finish(err error, attrs ...Attr) {
	if t == nil || !t.finished.CompareAndSwap(false, true) {
		return
	}
	typ := TypeRunEnd
	if isCancellation(err) {
		typ = TypeRunCanceled
	}
	m := attrMap(attrs)
	if err != nil {
		if m == nil {
			m = make(map[string]any, 1)
		}
		m["error"] = err.Error()
	}
	t.sink.Emit(Event{TS: t.now(), Type: typ, Attrs: m})
}

// isCancellation reports whether err stems from a canceled or expired
// context.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
