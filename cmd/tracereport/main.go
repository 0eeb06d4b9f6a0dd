// Command tracereport renders a JSONL run journal (written by
// atpg -journal or experiments -journal) into human-readable summary
// tables: per-phase span aggregates, per-fault verdicts (including the
// degraded undetermined/quarantined outcomes), quarantined task panics,
// the slowest fault×config optimizations, and the final engine metrics
// snapshot embedded in the run_end record.
//
// Usage:
//
//	tracereport [-top k] [-validate] [-chrome out.json] run.jsonl
//
// The journal is validated against the schema before reporting;
// -validate stops after validation (the CI mode). -chrome converts the
// journal into Chrome trace-event JSON (phase lanes, per-fault slices,
// instant events for quarantines and guard trips — see
// internal/obs/chrometrace) and exits; the file opens directly in
// Perfetto or chrome://tracing. A journal ending in run_canceled is
// reported as a truncated-but-valid record of an interrupted run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/api"
	"repro/internal/obs"
	"repro/internal/obs/chrometrace"
	"repro/internal/report"
)

func main() {
	top := flag.Int("top", 10, "list the k slowest optimization spans")
	validateOnly := flag.Bool("validate", false, "validate the journal against the schema and exit")
	chromeOut := flag.String("chrome", "", "write the journal as Chrome trace-event JSON to this file and exit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracereport [-top k] [-validate] [-chrome out.json] run.jsonl")
		os.Exit(2)
	}
	path := flag.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	stats, err := obs.Validate(bufio.NewReader(f))
	if err != nil {
		f.Close()
		fail(fmt.Errorf("%s: invalid journal: %w", path, err))
	}
	fmt.Printf("%s: valid journal (schema v%d): %d records, %d spans, terminal %s",
		path, stats.Version, stats.Events, stats.Spans, stats.Terminal)
	if stats.OpenSpans > 0 {
		fmt.Printf(", %d spans truncated by cancellation", stats.OpenSpans)
	}
	fmt.Println()
	if *validateOnly {
		f.Close()
		return
	}

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		fail(err)
	}
	if *chromeOut != "" {
		err := writeChrome(bufio.NewReader(f), *chromeOut)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote Chrome trace %s (open in Perfetto or chrome://tracing)\n", *chromeOut)
		return
	}
	rep, err := aggregate(bufio.NewReader(f))
	f.Close()
	if err != nil {
		fail(err)
	}
	rep.render(os.Stdout, *top)
}

// spanAgg accumulates the closed spans of one name.
type spanAgg struct {
	name  string
	count int
	total time.Duration
	max   time.Duration
}

// slowSpan is one closed span with its identifying attributes, ranked
// for the top-k table.
type slowSpan struct {
	name  string
	dur   time.Duration
	attrs map[string]any
}

// faultAgg accumulates where one fault's time went: the wall time of
// every span carrying its fault attribute, split by span name.
type faultAgg struct {
	fault   string
	spans   int
	wall    map[string]time.Duration
	total   time.Duration
	verdict string
}

// reportData is everything the renderer needs from one journal pass.
type reportData struct {
	runAttrs    map[string]any
	runDur      time.Duration
	terminal    string
	termErr     string
	byName      map[string]*spanAgg
	perFault    map[string]*faultAgg
	events      map[string]int
	verdicts    []map[string]any
	quarantines []map[string]any
	slow        []slowSpan
	metricsAttr any
}

// aggregate runs the single reporting pass over a validated journal.
func aggregate(r io.Reader) (*reportData, error) {
	d := &reportData{
		byName:   make(map[string]*spanAgg),
		perFault: make(map[string]*faultAgg),
		events:   make(map[string]int),
	}
	// open maps span IDs to their span_start attributes so the slow-span
	// table can label a duration (known only at span_end) with the
	// fault/config recorded at span_start.
	open := make(map[uint64]map[string]any)
	dec := json.NewDecoder(r)
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		switch ev.Type {
		case obs.TypeRunStart:
			d.runAttrs = ev.Attrs
		case obs.TypeSpanStart:
			open[ev.Span] = ev.Attrs
		case obs.TypeSpanEnd:
			agg := d.byName[ev.Name]
			if agg == nil {
				agg = &spanAgg{name: ev.Name}
				d.byName[ev.Name] = agg
			}
			dur := time.Duration(ev.Dur)
			agg.count++
			agg.total += dur
			if dur > agg.max {
				agg.max = dur
			}
			if ev.Name == "optimize" {
				attrs := open[ev.Span]
				if attrs == nil {
					attrs = map[string]any{}
				}
				for k, v := range ev.Attrs {
					attrs[k] = v
				}
				d.slow = append(d.slow, slowSpan{name: ev.Name, dur: dur, attrs: attrs})
			}
			// Per-fault attribution: any span whose start attributes name a
			// fault contributes its wall time to that fault's breakdown.
			if fault, ok := open[ev.Span]["fault"].(string); ok {
				fa := d.perFault[fault]
				if fa == nil {
					fa = &faultAgg{fault: fault, wall: make(map[string]time.Duration)}
					d.perFault[fault] = fa
				}
				fa.spans++
				fa.wall[ev.Name] += dur
				fa.total += dur
			}
			delete(open, ev.Span)
		case obs.TypeEvent:
			d.events[ev.Name]++
			switch ev.Name {
			case "fault_verdict":
				d.verdicts = append(d.verdicts, ev.Attrs)
				if fault, ok := ev.Attrs["fault"].(string); ok {
					if fa := d.perFault[fault]; fa != nil {
						if v, ok := ev.Attrs["verdict"].(string); ok {
							fa.verdict = v
						}
					}
				}
			case "quarantine":
				d.quarantines = append(d.quarantines, ev.Attrs)
			}
		case obs.TypeRunEnd, obs.TypeRunCanceled:
			d.terminal = ev.Type
			d.runDur = time.Duration(ev.TS)
			if ev.Attrs != nil {
				d.metricsAttr = ev.Attrs["metrics"]
				if s, ok := ev.Attrs["error"].(string); ok {
					d.termErr = s
				}
			}
		}
	}
	return d, nil
}

func (d *reportData) render(w io.Writer, top int) {
	if len(d.runAttrs) > 0 {
		fmt.Fprintf(w, "run attributes: %s\n", compactJSON(d.runAttrs))
	}
	fmt.Fprintf(w, "run wall time: %v\n", d.runDur.Round(time.Microsecond))
	if d.terminal == obs.TypeRunCanceled {
		fmt.Fprintf(w, "run CANCELED: %s\n", d.termErr)
	}

	if len(d.byName) > 0 {
		fmt.Fprintln(w, "\nspans by phase:")
		aggs := make([]*spanAgg, 0, len(d.byName))
		for _, a := range d.byName {
			aggs = append(aggs, a)
		}
		sort.Slice(aggs, func(i, j int) bool { return aggs[i].total > aggs[j].total })
		t := report.NewTable("span", "count", "total", "avg", "max")
		for _, a := range aggs {
			t.AddRow(a.name, a.count, a.total.Round(time.Microsecond),
				(a.total / time.Duration(a.count)).Round(time.Microsecond),
				a.max.Round(time.Microsecond))
		}
		_, _ = t.WriteTo(w)
	}

	if len(d.events) > 0 {
		fmt.Fprintln(w, "\npoint events:")
		names := make([]string, 0, len(d.events))
		for n := range d.events {
			names = append(names, n)
		}
		sort.Strings(names)
		t := report.NewTable("event", "count")
		for _, n := range names {
			t.AddRow(n, d.events[n])
		}
		_, _ = t.WriteTo(w)
	}

	if len(d.verdicts) > 0 {
		fmt.Fprintln(w, "\nfault verdicts:")
		t := report.NewTable("fault", "verdict", "config", "S_f", "critical impact", "evals", "attempts", "impact iters")
		for _, v := range d.verdicts {
			verdict := str(v["verdict"])
			if v["verdict"] == nil {
				// Schema v1 journals carry only the undetectable flag.
				verdict = "detected"
				if v["undetectable"] == true {
					verdict = "undetectable"
				}
			}
			sf := any("-")
			if f, ok := v["s_f"].(float64); ok {
				sf = f
			}
			ci := "-"
			if f, ok := v["critical_impact"].(float64); ok {
				ci = report.Engineering(f)
			}
			t.AddRow(str(v["fault"]), verdict, num(v["config"]), sf, ci,
				num(v["evals"]), num(v["attempts"]), num(v["impact_iters"]))
		}
		_, _ = t.WriteTo(w)
	}

	if len(d.quarantines) > 0 {
		fmt.Fprintf(w, "\nquarantined tasks (%d): isolated panics, run continued without them\n", len(d.quarantines))
		t := report.NewTable("fault", "config", "phase", "panic")
		for _, q := range d.quarantines {
			t.AddRow(str(q["fault"]), num(q["config"]), str(q["phase"]), str(q["panic"]))
		}
		_, _ = t.WriteTo(w)
	}

	if len(d.perFault) > 0 {
		// Where the time went, per fault: every span carrying the fault's
		// attribute, split into the optimization itself vs the impact
		// ladder around it. The histogram percentiles of the same
		// distribution appear in the engine metrics table (fault-e2e).
		var total time.Duration
		aggs := make([]*faultAgg, 0, len(d.perFault))
		for _, fa := range d.perFault {
			aggs = append(aggs, fa)
			total += fa.total
		}
		sort.Slice(aggs, func(i, j int) bool { return aggs[i].total > aggs[j].total })
		k := len(aggs)
		if top > 0 && k > top {
			k = top
		}
		fmt.Fprintf(w, "\nper-fault time attribution (%d of %d faults, by total wall):\n", k, len(aggs))
		t := report.NewTable("fault", "verdict", "spans", "optimize", "impact-loop", "other", "total", "share")
		for _, fa := range aggs[:k] {
			other := fa.total - fa.wall["optimize"] - fa.wall["impact-loop"]
			t.AddRow(fa.fault, orDash(fa.verdict), fa.spans,
				fa.wall["optimize"].Round(time.Microsecond),
				fa.wall["impact-loop"].Round(time.Microsecond),
				other.Round(time.Microsecond),
				fa.total.Round(time.Microsecond),
				fmt.Sprintf("%.1f%%", 100*float64(fa.total)/float64(total)))
		}
		_, _ = t.WriteTo(w)
	}

	if len(d.slow) > 0 && top > 0 {
		sort.Slice(d.slow, func(i, j int) bool { return d.slow[i].dur > d.slow[j].dur })
		k := top
		if k > len(d.slow) {
			k = len(d.slow)
		}
		fmt.Fprintf(w, "\nslowest %d optimizations (of %d):\n", k, len(d.slow))
		t := report.NewTable("fault", "config", "wall", "soft S_f", "evals")
		for _, s := range d.slow[:k] {
			t.AddRow(str(s.attrs["fault"]), num(s.attrs["config"]),
				s.dur.Round(time.Microsecond), s.attrs["soft_s"], num(s.attrs["evals"]))
		}
		_, _ = t.WriteTo(w)
	}

	if d.metricsAttr != nil {
		if m, ok := decodeMetrics(d.metricsAttr); ok {
			fmt.Fprintln(w, "\nengine metrics (run_end snapshot):")
			_ = report.WriteMetrics(w, m)
		}
	}
}

// decodeMetrics re-decodes the run_end "metrics" attribute (a generic
// JSON object after the journal round trip) into the wire form
// api.MetricsSnapshot, recognizable by its "v" version field.
func decodeMetrics(v any) (api.MetricsSnapshot, bool) {
	raw, err := json.Marshal(v)
	if err != nil {
		return api.MetricsSnapshot{}, false
	}
	var m api.MetricsSnapshot
	if err := json.Unmarshal(raw, &m); err != nil || m.V < 1 {
		return api.MetricsSnapshot{}, false
	}
	return m, true
}

// writeChrome converts the (already schema-validated) journal into
// Chrome trace-event JSON at path.
func writeChrome(r io.Reader, path string) error {
	tr, err := chrometrace.Convert(r)
	if err != nil {
		return err
	}
	out, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// orDash renders an empty string as "-".
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(b)
}

func str(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprintf("%v", v)
}

// num renders a journal number (float64 after JSON decoding) as an
// integer when it is one, and a missing attribute as "-".
func num(v any) string {
	if v == nil {
		return "-"
	}
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%v", v)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracereport:", err)
	os.Exit(1)
}
