package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Journal is the JSONL run-journal sink: one JSON-encoded Event per
// line. Writes are serialized under a mutex and buffered; terminal
// records (run_end / run_canceled) flush eagerly so a journal is
// complete on disk the moment Tracer.Finish returns, even if the
// process later dies before Close.
type Journal struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closed bool
	// line is the record encoding buffer, reused under mu.
	line []byte
	// tee, when set, receives every record line written (see Tee).
	tee func(typ string, line []byte)
	// Dropped counts events that arrived after Close — stragglers from
	// goroutines still winding down on a canceled run.
	dropped atomic.Uint64
	// err remembers the first write error; subsequent writes are dropped.
	err error
}

// NewJournal returns a journal writing JSONL to w. The caller owns w
// (and closes it after Journal.Close, if it is a file).
func NewJournal(w io.Writer) *Journal {
	return &Journal{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Emit implements Sink. The record is encoded once (appendEvent: the
// bytes of json.Marshal(ev)) into a buffer the journal reuses, handed
// to the tee, and written as one line.
func (j *Journal) Emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		j.dropped.Add(1)
		return
	}
	j.line = appendEvent(j.line[:0], ev)
	if j.tee != nil {
		j.tee(ev.Type, j.line)
	}
	if j.err != nil {
		return
	}
	j.line = append(j.line, '\n')
	if _, err := j.bw.Write(j.line); err != nil {
		j.err = err
		return
	}
	if ev.Type == TypeRunEnd || ev.Type == TypeRunCanceled {
		j.err = j.bw.Flush()
	}
}

// Tee hands every record the journal writes from now on to fn as well:
// its type and its line without the trailing newline, in journal order,
// under the journal's lock. fn must neither retain line nor call back
// into the journal. A write error stops the file, not the tee.
func (j *Journal) Tee(fn func(typ string, line []byte)) {
	j.mu.Lock()
	j.tee = fn
	j.mu.Unlock()
}

// Flush forces buffered records out to the underlying writer.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return nil
	}
	return j.bw.Flush()
}

// Close flushes and seals the journal; later events are counted in
// Dropped instead of written. Close does not write a terminal record —
// that is Tracer.Finish's job — and returns the first write error seen.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if ferr := j.bw.Flush(); j.err == nil {
		j.err = ferr
	}
	return j.err
}

// Dropped returns the number of events discarded after Close.
func (j *Journal) Dropped() uint64 { return j.dropped.Load() }

// Collector is an in-memory sink for tests.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a snapshot of the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// ValidationStats summarizes a validated journal.
type ValidationStats struct {
	// Version is the schema version from the run_start record.
	Version int
	// Events is the total record count (including run_start/terminal).
	Events int
	// Spans is the number of span_start records.
	Spans int
	// OpenSpans is the number of spans never closed (only legal on a
	// run_canceled journal).
	OpenSpans int
	// Terminal is the type of the final record (run_end or
	// run_canceled).
	Terminal string
}

// v2EventNames are the point-event names the fault-tolerant runtime
// added in schema v2. A journal that declares v1 must not contain them:
// either its producer lied about the version or the file was stitched
// together from mixed runs — both are worth failing loudly over.
var v2EventNames = map[string]bool{
	"quarantine":       true,
	"retry":            true,
	"checkpoint_write": true,
	"checkpoint_error": true,
	"resume":           true,
}

// v3EventNames are the resource-governance point-event names added in
// schema v3 (the state transitions of a circuit breaker the solver no
// longer has; nothing emits them, and they stay so that older journals
// validate). Journals that declare v1 or v2 must not contain them.
var v3EventNames = map[string]bool{
	"breaker_trip":  true,
	"breaker_reset": true,
}

// v4EventNames are the distributed-execution point-event names added in
// schema v4: worker lifecycle and shard assignment/merge records
// emitted by a coordinating atpgd. Journals that declare v1..v3 must
// not contain them.
var v4EventNames = map[string]bool{
	"worker_join":   true,
	"worker_lost":   true,
	"shard_assign":  true,
	"shard_done":    true,
	"shard_requeue": true,
}

// schemaRules is the per-version validation vocabulary. Validation
// dispatches on the run_start version explicitly — v1 journals written
// before the fault-tolerant runtime stay first-class citizens instead
// of being accepted (or rejected) by accident of a shared code path.
type schemaRules struct {
	version int
}

// rulesForVersion returns the validation rules for a declared journal
// schema version, or an error for versions this reader does not speak.
func rulesForVersion(v int) (schemaRules, error) {
	switch v {
	case 1, 2, 3, 4:
		return schemaRules{version: v}, nil
	default:
		return schemaRules{}, fmt.Errorf("unsupported schema version %d (this reader speaks v1..v%d)", v, SchemaVersion)
	}
}

// checkEvent applies the version-specific vocabulary to one record.
func (r schemaRules) checkEvent(ev Event) error {
	if r.version < 2 && ev.Type == TypeEvent && v2EventNames[ev.Name] {
		return fmt.Errorf("event %q requires schema v2, journal declares v%d", ev.Name, r.version)
	}
	if r.version < 3 && ev.Type == TypeEvent && v3EventNames[ev.Name] {
		return fmt.Errorf("event %q requires schema v3, journal declares v%d", ev.Name, r.version)
	}
	if r.version < 4 && ev.Type == TypeEvent && v4EventNames[ev.Name] {
		return fmt.Errorf("event %q requires schema v4, journal declares v%d", ev.Name, r.version)
	}
	return nil
}

// Validate checks a JSONL journal against its declared schema version,
// dispatching explicitly on v1 and v2 (see rulesForVersion):
//
//   - the first record is run_start with a known schema version,
//   - span IDs are unique and every span_end matches an open span_start,
//   - timestamps are non-negative,
//   - the record vocabulary matches the declared version (a v1 journal
//     must not carry v2-only resilience events),
//   - the last record is terminal (run_end or run_canceled),
//   - every span is closed, unless the run was canceled (a canceled run
//     is truncated but valid).
//
// It returns the journal's summary statistics alongside the first
// violation found.
func Validate(r io.Reader) (ValidationStats, error) {
	var st ValidationStats
	var rules schemaRules
	open := make(map[uint64]string) // span id -> name
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	var last Event
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		line++
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return st, fmt.Errorf("obs: line %d: invalid JSON: %w", line, err)
		}
		st.Events++
		if st.Events == 1 {
			if ev.Type != TypeRunStart {
				return st, fmt.Errorf("obs: line %d: first record is %q, want %q", line, ev.Type, TypeRunStart)
			}
			var rerr error
			if rules, rerr = rulesForVersion(ev.V); rerr != nil {
				return st, fmt.Errorf("obs: line %d: %w", line, rerr)
			}
			st.Version = ev.V
		} else if ev.Type == TypeRunStart {
			return st, fmt.Errorf("obs: line %d: duplicate run_start", line)
		}
		if last.Type == TypeRunEnd || last.Type == TypeRunCanceled {
			return st, fmt.Errorf("obs: line %d: record after terminal %q", line, last.Type)
		}
		if ev.TS < 0 {
			return st, fmt.Errorf("obs: line %d: negative timestamp %d", line, ev.TS)
		}
		if err := rules.checkEvent(ev); err != nil {
			return st, fmt.Errorf("obs: line %d: %w", line, err)
		}
		switch ev.Type {
		case TypeRunStart, TypeEvent, TypeRunEnd, TypeRunCanceled:
		case TypeSpanStart:
			if ev.Span == 0 {
				return st, fmt.Errorf("obs: line %d: span_start without span id", line)
			}
			if _, dup := open[ev.Span]; dup {
				return st, fmt.Errorf("obs: line %d: duplicate span id %d", line, ev.Span)
			}
			open[ev.Span] = ev.Name
			st.Spans++
		case TypeSpanEnd:
			if _, ok := open[ev.Span]; !ok {
				return st, fmt.Errorf("obs: line %d: span_end for unknown span %d", line, ev.Span)
			}
			delete(open, ev.Span)
			if ev.Dur < 0 {
				return st, fmt.Errorf("obs: line %d: negative duration %d", line, ev.Dur)
			}
		default:
			return st, fmt.Errorf("obs: line %d: unknown record type %q", line, ev.Type)
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("obs: reading journal: %w", err)
	}
	if st.Events == 0 {
		return st, fmt.Errorf("obs: empty journal")
	}
	st.Terminal = last.Type
	st.OpenSpans = len(open)
	if last.Type != TypeRunEnd && last.Type != TypeRunCanceled {
		return st, fmt.Errorf("obs: journal ends with %q, want a terminal record", last.Type)
	}
	if st.OpenSpans > 0 && last.Type != TypeRunCanceled {
		return st, fmt.Errorf("obs: %d spans never closed in a completed run", st.OpenSpans)
	}
	return st, nil
}
