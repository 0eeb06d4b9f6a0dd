// Package chrometrace converts a JSONL run journal into the Chrome
// trace-event format (the JSON object form with a traceEvents array),
// so any run opens directly in Perfetto or chrome://tracing.
//
// The mapping (documented in DESIGN.md §13):
//
//   - Every closed journal span becomes one complete ("X") event. Its
//     lane (Chrome tid) is the span name — one lane per phase — so the
//     timeline shows phase lanes: generate-all, optimize, impact-loop,
//     compact, coverage, sim.op, ... Slices carry the fault and config
//     of the span in their name ("optimize R3.short#2"), giving
//     per-fault slices inside the phase lane; the base phase name is
//     preserved in the event's cat field for tooling.
//   - Quarantines become global instant events (vertical line across
//     all lanes); retries, checkpoint writes/errors, resumes and fault
//     verdicts become thread-scoped instants on the lane of their
//     enclosing span (or the "events" lane when unparented).
//   - High-frequency point events (opt_iter, impact_step, cache_hit,
//     cache_miss) are dropped: they would dominate the file size while
//     the aggregate tables already report their counts.
//   - The whole run is one "run" slice on lane 0; a canceled run adds a
//     global "run_canceled" instant at the truncation point.
//
// Journal timestamps are nanoseconds since the run epoch; trace-event
// timestamps are microseconds, so every ts/dur divides by 1e3.
package chrometrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Event is one Chrome trace event (the subset of fields the viewers
// consume).
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Trace is the object form of the trace-event format.
type Trace struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
}

// pid is the single process every event lives in: one journal is one
// run.
const pid = 1

// instantScoped are the point-event names rendered as thread-scoped
// instants. quarantine is handled separately (global scope), and the
// high-frequency names are dropped entirely.
var instantScoped = map[string]bool{
	"retry":            true,
	"resume":           true,
	"checkpoint_write": true,
	"checkpoint_error": true,
	"fault_verdict":    true,
	"breaker_trip":     true,
	"breaker_reset":    true,
}

// dropped are the high-frequency point events excluded from the trace.
var dropped = map[string]bool{
	"opt_iter":    true,
	"impact_step": true,
	"cache_hit":   true,
	"cache_miss":  true,
}

// converter carries the lane table through one conversion pass.
type converter struct {
	lanes map[string]int
	order []string // lane names in allocation order (sort index)
	out   []Event
}

// lane returns the tid of a named lane, allocating on first use. Lane 0
// is reserved for the run slice.
func (c *converter) lane(name string) int {
	if tid, ok := c.lanes[name]; ok {
		return tid
	}
	tid := len(c.lanes) + 1
	c.lanes[name] = tid
	c.order = append(c.order, name)
	return tid
}

// Convert reads a JSONL journal and builds its Chrome trace. The
// journal is assumed schema-valid (run it through obs.Validate first);
// malformed JSON still errors, but semantic violations (unbalanced
// spans, missing terminal) degrade to a partial trace rather than
// failing — a truncated timeline of a crashed run is exactly when a
// timeline is most wanted.
func Convert(r io.Reader) (*Trace, error) {
	c := &converter{lanes: make(map[string]int)}
	// Open span_starts, by ID: attributes label the eventual slice, the
	// lane parents thread-scoped instants.
	type openSpan struct {
		name  string
		attrs map[string]any
	}
	open := make(map[uint64]*openSpan)
	var runAttrs map[string]any
	var lastTS int64
	terminal := ""

	dec := json.NewDecoder(r)
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		if ev.TS > lastTS {
			lastTS = ev.TS
		}
		switch ev.Type {
		case obs.TypeRunStart:
			runAttrs = ev.Attrs
		case obs.TypeSpanStart:
			open[ev.Span] = &openSpan{name: ev.Name, attrs: ev.Attrs}
		case obs.TypeSpanEnd:
			args := map[string]any{}
			if sp := open[ev.Span]; sp != nil {
				for k, v := range sp.attrs {
					args[k] = v
				}
				delete(open, ev.Span)
			}
			for k, v := range ev.Attrs {
				args[k] = v
			}
			tid := c.lane(ev.Name)
			// Retrospective spans (sim.*) may report a duration reaching
			// before the epoch; clamp their start like the tracer does.
			start := ev.TS - ev.Dur
			if start < 0 {
				start = 0
			}
			dur := float64(ev.TS-start) / 1e3
			if dur <= 0 {
				// Zero-width slices are invisible; clamp to 1ns.
				dur = 0.001
			}
			c.out = append(c.out, Event{
				Name: sliceName(ev.Name, args), Cat: ev.Name, Ph: "X",
				TS: float64(start) / 1e3, Dur: dur,
				Pid: pid, Tid: tid, Args: args,
			})
		case obs.TypeEvent:
			switch {
			case ev.Name == "quarantine":
				c.out = append(c.out, Event{
					Name: sliceName(ev.Name, ev.Attrs), Cat: ev.Name, Ph: "i", Scope: "g",
					TS: float64(ev.TS) / 1e3, Pid: pid, Tid: c.lane("events"),
					Args: ev.Attrs,
				})
			case instantScoped[ev.Name]:
				tid := c.lane("events")
				if sp := open[ev.Span]; sp != nil {
					tid = c.lane(sp.name)
				}
				c.out = append(c.out, Event{
					Name: sliceName(ev.Name, ev.Attrs), Cat: ev.Name, Ph: "i", Scope: "t",
					TS: float64(ev.TS) / 1e3, Pid: pid, Tid: tid,
					Args: ev.Attrs,
				})
			case dropped[ev.Name]:
				// High-frequency: counts live in the report tables.
			default:
				// Unknown point events ride along thread-scoped so future
				// schema additions appear without a converter change.
				c.out = append(c.out, Event{
					Name: sliceName(ev.Name, ev.Attrs), Cat: ev.Name, Ph: "i", Scope: "t",
					TS: float64(ev.TS) / 1e3, Pid: pid, Tid: c.lane("events"),
					Args: ev.Attrs,
				})
			}
		case obs.TypeRunEnd, obs.TypeRunCanceled:
			terminal = ev.Type
		}
	}

	// The run slice spans the whole journal on lane 0.
	events := []Event{{
		Name: "run", Cat: "run", Ph: "X", TS: 0,
		Dur: maxf(float64(lastTS)/1e3, 0.001), Pid: pid, Tid: 0, Args: runAttrs,
	}}
	if terminal == obs.TypeRunCanceled {
		events = append(events, Event{
			Name: "run_canceled", Cat: "run", Ph: "i", Scope: "g",
			TS: float64(lastTS) / 1e3, Pid: pid, Tid: 0,
		})
	}
	events = append(events, c.out...)

	// Name the lanes and pin their order: run first, then phases in
	// first-appearance order (generation before compaction before
	// coverage for a typical journal).
	events = append(events, meta("process_name", 0, map[string]any{"name": processName(runAttrs)}))
	events = append(events, meta("thread_name", 0, map[string]any{"name": "run"}),
		meta("thread_sort_index", 0, map[string]any{"sort_index": 0}))
	for i, name := range c.order {
		tid := c.lanes[name]
		events = append(events, meta("thread_name", tid, map[string]any{"name": name}),
			meta("thread_sort_index", tid, map[string]any{"sort_index": i + 1}))
	}
	return &Trace{TraceEvents: events, DisplayTimeUnit: "ms"}, nil
}

// meta builds a metadata record (process/thread naming).
func meta(name string, tid int, args map[string]any) Event {
	return Event{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args}
}

// processName labels the process track from the run_start attributes.
func processName(attrs map[string]any) string {
	if cmd, ok := attrs["cmd"].(string); ok {
		return "atpg run (" + cmd + ")"
	}
	return "atpg run"
}

// sliceName labels a slice with its fault (and config) so per-fault
// work is readable without opening the args pane.
func sliceName(base string, attrs map[string]any) string {
	f, _ := attrs["fault"].(string)
	if f == "" {
		return base
	}
	if cfg, ok := attrs["config"].(float64); ok {
		return fmt.Sprintf("%s %s#%d", base, f, int64(cfg))
	}
	return base + " " + f
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Stats summarizes a validated trace.
type Stats struct {
	// Events is the total record count, Complete the number of "X"
	// events per category (the base span name).
	Events   int
	Complete map[string]int
}

// Validate decodes a Chrome trace (object form or bare event array),
// checks structural invariants — known phase letters, non-negative
// timestamps and durations, names on slices, one pid — and that every
// category in requireComplete has at least one complete event. This is
// the CI gate behind `obslint -chrome`.
func Validate(r io.Reader, requireComplete []string) (Stats, error) {
	var st Stats
	raw, err := io.ReadAll(r)
	if err != nil {
		return st, err
	}
	var events []Event
	var obj Trace
	if err := json.Unmarshal(raw, &obj); err == nil && obj.TraceEvents != nil {
		events = obj.TraceEvents
	} else if err := json.Unmarshal(raw, &events); err != nil {
		return st, fmt.Errorf("chrometrace: neither a trace object nor an event array: %w", err)
	}
	st.Complete = make(map[string]int)
	for i, ev := range events {
		switch ev.Ph {
		case "X":
			if ev.Name == "" {
				return st, fmt.Errorf("chrometrace: event %d: complete event without a name", i)
			}
			if ev.Dur < 0 {
				return st, fmt.Errorf("chrometrace: event %d (%s): negative duration %g", i, ev.Name, ev.Dur)
			}
			cat := ev.Cat
			if cat == "" {
				cat = ev.Name
			}
			st.Complete[cat]++
		case "i", "I":
			if ev.Scope != "" && ev.Scope != "g" && ev.Scope != "p" && ev.Scope != "t" {
				return st, fmt.Errorf("chrometrace: event %d (%s): bad instant scope %q", i, ev.Name, ev.Scope)
			}
		case "M", "B", "E", "b", "e", "n", "C":
			// Accepted without further checks.
		default:
			return st, fmt.Errorf("chrometrace: event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.TS < 0 {
			return st, fmt.Errorf("chrometrace: event %d (%s): negative timestamp", i, ev.Name)
		}
		st.Events++
	}
	missing := []string{}
	for _, cat := range requireComplete {
		if st.Complete[cat] == 0 {
			missing = append(missing, cat)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return st, fmt.Errorf("chrometrace: no complete events in categories %v", missing)
	}
	return st, nil
}
