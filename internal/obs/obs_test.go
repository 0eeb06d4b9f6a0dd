package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNesting: spans parent through the context, point events attach
// to the enclosing span, and End records a non-negative duration.
func TestSpanNesting(t *testing.T) {
	var c Collector
	tr := New(&c, String("cmd", "test"))
	ctx, outer := tr.Start(context.Background(), "outer")
	cctx, inner := tr.Start(ctx, "inner", Int("k", 3))
	tr.Event(cctx, "tick", F64("s_f", -0.25))
	inner.End(Int("evals", 7))
	outer.End()
	tr.Finish(nil)

	evs := c.Events()
	if len(evs) != 7 {
		t.Fatalf("got %d events, want 7", len(evs))
	}
	if evs[0].Type != TypeRunStart || evs[0].V != SchemaVersion {
		t.Fatalf("first event %+v is not a versioned run_start", evs[0])
	}
	if evs[1].Type != TypeSpanStart || evs[1].Name != "outer" || evs[1].Parent != 0 {
		t.Fatalf("outer span_start wrong: %+v", evs[1])
	}
	if evs[2].Parent != evs[1].Span {
		t.Fatalf("inner span parent = %d, want %d", evs[2].Parent, evs[1].Span)
	}
	if evs[3].Type != TypeEvent || evs[3].Span != evs[2].Span {
		t.Fatalf("event not parented to inner span: %+v", evs[3])
	}
	if evs[4].Type != TypeSpanEnd || evs[4].Dur < 0 {
		t.Fatalf("inner span_end wrong: %+v", evs[4])
	}
	if got := evs[4].Attrs["evals"]; got != 7 {
		t.Fatalf("span_end attr evals = %v, want 7", got)
	}
	if evs[6].Type != TypeRunEnd {
		t.Fatalf("terminal event %+v, want run_end", evs[6])
	}
}

// TestNilTracer: a nil tracer must be inert — no panics, contexts pass
// through unchanged.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	ctx := context.Background()
	octx, sp := tr.Start(ctx, "x", Int("i", 1))
	if octx != ctx {
		t.Fatal("nil tracer changed the context")
	}
	sp.End()
	tr.Event(ctx, "e")
	tr.Emit("e")
	tr.Complete("sim.op", time.Millisecond)
	tr.Finish(nil)
	var p *Progress
	p.SetPhase("x", 10)
	p.Step(1)
	if s := p.Snapshot(); s.Done != 0 || s.Phase != "" {
		t.Fatalf("nil progress snapshot not zero: %+v", s)
	}
}

// TestSampling: SampleEvery(n) keeps roughly one in n spans and never
// drops point events or the terminal record.
func TestSampling(t *testing.T) {
	var c Collector
	tr := NewWith(&c, nil, []TracerOption{SampleEvery(4)})
	for i := 0; i < 100; i++ {
		_, sp := tr.Start(context.Background(), "s")
		sp.End()
	}
	tr.Emit("point")
	tr.Finish(nil)
	starts := 0
	points := 0
	for _, ev := range c.Events() {
		switch ev.Type {
		case TypeSpanStart:
			starts++
		case TypeEvent:
			points++
		}
	}
	if starts != 25 {
		t.Fatalf("kept %d of 100 spans with SampleEvery(4), want 25", starts)
	}
	if points != 1 {
		t.Fatalf("point events sampled out: got %d, want 1", points)
	}
}

// TestFinishCancellation: Finish classifies context cancellation
// (however deeply wrapped) as run_canceled, and is idempotent.
func TestFinishCancellation(t *testing.T) {
	var c Collector
	tr := New(&c)
	wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", context.Canceled))
	tr.Finish(wrapped)
	tr.Finish(nil) // must not emit a second terminal
	evs := c.Events()
	last := evs[len(evs)-1]
	if last.Type != TypeRunCanceled {
		t.Fatalf("terminal type %q, want run_canceled", last.Type)
	}
	if !strings.Contains(last.Attrs["error"].(string), "inner") {
		t.Fatalf("terminal error attr lost the chain: %v", last.Attrs["error"])
	}
	terminals := 0
	for _, ev := range evs {
		if ev.Type == TypeRunCanceled || ev.Type == TypeRunEnd {
			terminals++
		}
	}
	if terminals != 1 {
		t.Fatalf("Finish emitted %d terminals, want 1", terminals)
	}
}

// TestJournalRoundTrip: a traced run written through the Journal must
// validate, and its stats must reflect the span count.
func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := New(j, String("cmd", "unit"))
	ctx, sp := tr.Start(context.Background(), "phase")
	for i := 0; i < 10; i++ {
		_, c := tr.Start(ctx, "task", Int("i", i))
		tr.Event(ctx, "cache_miss")
		c.End()
	}
	tr.Complete("sim.op", 42*time.Microsecond, I64("stamps", 12))
	sp.End()
	tr.Finish(nil)
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	st, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if st.Version != SchemaVersion {
		t.Fatalf("version %d, want %d", st.Version, SchemaVersion)
	}
	if st.Spans != 12 { // phase + 10 tasks + 1 retrospective
		t.Fatalf("spans %d, want 12", st.Spans)
	}
	if st.OpenSpans != 0 || st.Terminal != TypeRunEnd {
		t.Fatalf("stats %+v: want closed spans and run_end terminal", st)
	}

	// Every line must be standalone JSON.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i+1, err)
		}
	}
}

// TestJournalTruncatedCanceled: open spans are legal when the terminal
// record is run_canceled, and illegal under run_end.
func TestJournalTruncatedCanceled(t *testing.T) {
	mk := func(terminal string) string {
		var b strings.Builder
		b.WriteString(`{"ts":0,"type":"run_start","v":1}` + "\n")
		b.WriteString(`{"ts":5,"type":"span_start","name":"optimize","span":1}` + "\n")
		b.WriteString(`{"ts":9,"type":"` + terminal + `"}` + "\n")
		return b.String()
	}
	st, err := Validate(strings.NewReader(mk(TypeRunCanceled)))
	if err != nil {
		t.Fatalf("canceled journal with open span should validate, got %v", err)
	}
	if st.OpenSpans != 1 {
		t.Fatalf("open spans %d, want 1", st.OpenSpans)
	}
	if _, err := Validate(strings.NewReader(mk(TypeRunEnd))); err == nil {
		t.Fatal("completed journal with open span must fail validation")
	}
}

// TestValidateRejects: structural violations are caught.
func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"no run_start":   `{"ts":0,"type":"event","name":"x"}` + "\n",
		"bad version":    `{"ts":0,"type":"run_start","v":99}` + "\n",
		"no terminal":    `{"ts":0,"type":"run_start","v":1}` + "\n" + `{"ts":1,"type":"event","name":"x"}` + "\n",
		"unknown span":   `{"ts":0,"type":"run_start","v":1}` + "\n" + `{"ts":1,"type":"span_end","span":7}` + "\n" + `{"ts":2,"type":"run_end"}` + "\n",
		"dup span id":    `{"ts":0,"type":"run_start","v":1}` + "\n" + `{"ts":1,"type":"span_start","span":1}` + "\n" + `{"ts":1,"type":"span_start","span":1}` + "\n" + `{"ts":2,"type":"run_end"}` + "\n",
		"after terminal": `{"ts":0,"type":"run_start","v":1}` + "\n" + `{"ts":1,"type":"run_end"}` + "\n" + `{"ts":2,"type":"event","name":"x"}` + "\n",
	}
	for name, journal := range cases {
		if _, err := Validate(strings.NewReader(journal)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

// TestJournalDropsAfterClose: stragglers arriving after Close are
// counted, not written.
func TestJournalDropsAfterClose(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := New(j)
	tr.Finish(nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	tr.Emit("late")
	if buf.Len() != n {
		t.Fatal("event written after Close")
	}
	if j.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", j.Dropped())
	}
}

// TestTracerConcurrent: concurrent spans and events through a journal
// must produce a valid journal (exercised under -race in CI), and reach
// its tee one at a time: the plain counter below races otherwise.
func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	teed := 0
	j.Tee(func(string, []byte) { teed++ })
	tr := New(j)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, sp := tr.Start(context.Background(), "task", Int("worker", w))
				tr.Event(ctx, "tick", Int("i", i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tr.Finish(nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("concurrent journal invalid: %v", err)
	}
	if st.Spans != 400 {
		t.Fatalf("spans %d, want 400", st.Spans)
	}
	if teed != st.Events {
		t.Fatalf("tee saw %d records, journal has %d", teed, st.Events)
	}
}

// TestProgress: snapshot math (percent, ETA presence) and phase resets.
func TestProgress(t *testing.T) {
	p := NewProgress()
	p.SetPhase("optimize", 100)
	p.Step(25)
	time.Sleep(time.Millisecond)
	s := p.Snapshot()
	if s.Phase != "optimize" || s.Done != 25 || s.Total != 100 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Percent() != 25 {
		t.Fatalf("percent %v, want 25", s.Percent())
	}
	if s.ETA <= 0 {
		t.Fatalf("ETA %v, want > 0 with work remaining", s.ETA)
	}
	p.SetPhase("coverage", 10)
	s = p.Snapshot()
	if s.Done != 0 || s.Total != 10 || s.Phase != "coverage" {
		t.Fatalf("phase reset failed: %+v", s)
	}
	if s.ETA != 0 {
		t.Fatalf("ETA %v before any unit, want 0", s.ETA)
	}
}
