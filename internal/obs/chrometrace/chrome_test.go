package chrometrace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// journalFor traces a miniature run through the real tracer + journal,
// so the converter consumes exactly what production writes.
func journalFor(t *testing.T, cancel bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	tr := obs.New(j, obs.String("cmd", "test"))
	ctx := context.Background()

	gctx, gen := tr.Start(ctx, "generate-all", obs.Int("faults", 2))
	octx, opt := tr.Start(gctx, "optimize", obs.String("fault", "R3.short"), obs.Int("config", 2))
	tr.Event(octx, "retry", obs.Int("attempt", 1))
	tr.Event(octx, "opt_iter", obs.Int("i", 0)) // high-frequency: must be dropped
	opt.End(obs.F64("soft_s", 1.5))
	tr.Complete("sim.op", 5*time.Millisecond, obs.I64("newton_iters", 3))
	tr.Event(gctx, "quarantine", obs.String("fault", "C1.open"), obs.String("phase", "optimize"))
	gen.End()
	_, cp := tr.Start(ctx, "compact")
	cp.End()
	_, cov := tr.Start(ctx, "coverage")
	cov.End()
	if cancel {
		tr.Finish(context.Canceled)
	} else {
		tr.Finish(nil)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestConvertShape(t *testing.T) {
	raw := journalFor(t, false)
	tr, err := Convert(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The output must validate through its own gate, with a complete
	// event in every phase of the mini run.
	st, err := Validate(bytes.NewReader(out),
		[]string{"run", "generate-all", "optimize", "compact", "coverage", "sim.op"})
	if err != nil {
		t.Fatalf("self-validation: %v\n%s", err, out)
	}
	if st.Complete["optimize"] != 1 {
		t.Fatalf("optimize complete events = %d, want 1", st.Complete["optimize"])
	}

	byName := map[string][]Event{}
	lanes := map[int]string{}
	for _, ev := range tr.TraceEvents {
		byName[ev.Name] = append(byName[ev.Name], ev)
		if ev.Ph == "M" && ev.Name == "thread_name" {
			lanes[ev.Tid] = ev.Args["name"].(string)
		}
	}

	// Per-fault slice naming, on the phase's own lane.
	opt := byName["optimize R3.short#2"]
	if len(opt) != 1 || opt[0].Ph != "X" || opt[0].Cat != "optimize" {
		t.Fatalf("optimize slice: %+v", opt)
	}
	if lanes[opt[0].Tid] != "optimize" {
		t.Fatalf("optimize slice on lane %q", lanes[opt[0].Tid])
	}
	if opt[0].Args["soft_s"] != 1.5 {
		t.Fatalf("span_end attrs not merged into args: %v", opt[0].Args)
	}

	// Quarantine: global instant. Retry: thread instant on the lane of
	// its enclosing span (optimize).
	q := byName["quarantine C1.open"]
	if len(q) != 1 || q[0].Ph != "i" || q[0].Scope != "g" {
		t.Fatalf("quarantine instant: %+v", q)
	}
	r := byName["retry"]
	if len(r) != 1 || r[0].Scope != "t" || lanes[r[0].Tid] != "optimize" {
		t.Fatalf("retry instant: %+v (lane %q)", r, lanes[r[0].Tid])
	}

	// High-frequency events must not leak into the trace.
	if len(byName["opt_iter"]) != 0 {
		t.Fatal("opt_iter leaked into the trace")
	}

	// The run slice covers every other event.
	run := byName["run"][0]
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.TS+ev.Dur > run.TS+run.Dur+1e-9 {
			t.Fatalf("slice %q (%g+%g) outruns the run slice (%g)", ev.Name, ev.TS, ev.Dur, run.Dur)
		}
	}
}

func TestConvertCanceledRun(t *testing.T) {
	tr, err := Convert(bytes.NewReader(journalFor(t, true)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tr.TraceEvents {
		if ev.Name == "run_canceled" && ev.Ph == "i" && ev.Scope == "g" {
			found = true
		}
	}
	if !found {
		t.Fatal("no run_canceled instant")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       `{"traceEvents": [`,
		"unknown phase":  `{"traceEvents": [{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}]}`,
		"negative ts":    `{"traceEvents": [{"name":"x","ph":"X","ts":-1,"dur":1,"pid":1,"tid":1}]}`,
		"negative dur":   `{"traceEvents": [{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
		"nameless slice": `{"traceEvents": [{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		"bad scope":      `{"traceEvents": [{"name":"x","ph":"i","s":"q","ts":0,"pid":1,"tid":1}]}`,
	}
	for name, doc := range cases {
		if _, err := Validate(strings.NewReader(doc), nil); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	// Missing required category is an error that names the category.
	doc := `{"traceEvents": [{"name":"x","cat":"compact","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`
	_, err := Validate(strings.NewReader(doc), []string{"compact", "coverage"})
	if err == nil || !strings.Contains(err.Error(), "coverage") {
		t.Fatalf("missing-category error: %v", err)
	}
	// Bare arrays (the legacy trace format) are accepted.
	if _, err := Validate(strings.NewReader(`[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]`), nil); err != nil {
		t.Fatalf("bare array rejected: %v", err)
	}
}
