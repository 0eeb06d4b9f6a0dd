package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// TestJournalEmitAllocs: a journal encodes a sim.transient span_end
// record — the most frequent record of a traced run — into the buffer
// it reuses, so Emit allocates nothing; the attribute map the tracer
// builds is the record's only allocation.
func TestJournalEmitAllocs(t *testing.T) {
	j := NewJournal(io.Discard)
	ev := Event{TS: 1234567890, Type: TypeSpanEnd, Name: "sim.transient", Span: 40312, Dur: 987654,
		Attrs: map[string]any{
			"stamps": int64(22880), "factorizations": int64(2288), "factor_reuses": int64(0),
			"newton_iters": int64(2288), "solves": int64(2288), "base_hits": int64(1),
		}}
	j.Emit(ev)
	if n := testing.AllocsPerRun(200, func() { j.Emit(ev) }); n != 0 {
		t.Fatalf("Journal.Emit allocates %.1f times per record, want 0", n)
	}
}

// TestJournalLinesAreMarshal: every line a journal writes, and every
// line it hands its tee, is json.Marshal of the emitted record — with
// an unencodable attribute replaced by the marshal_error record.
func TestJournalLinesAreMarshal(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	var teed []string
	var types []string
	j.Tee(func(typ string, line []byte) {
		types = append(types, typ)
		teed = append(teed, string(line))
	})
	var col Collector
	tr := New(fanout{j, &col}, String("cmd", "test"), F64("delta", 0.1))
	ctx, sp := tr.Start(context.Background(), "generate", String("fault", `bridge:"a"<b>`))
	tr.Event(ctx, "impact_step", F64("impact", 1e-7), F64("sf", 2.5e21), Int("step", -3))
	tr.Event(ctx, "bad", F64("nan", math.NaN()))
	tr.Complete("sim.op", time.Microsecond, I64("stamps", 12))
	sp.End(Bool("ok", true), Any("list", []int{1, 2}))
	tr.Finish(nil, Any("metrics", map[string]float64{"b": 1, "a": 0.5}))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	evs := col.Events()
	if len(lines) != len(evs) || len(teed) != len(evs) {
		t.Fatalf("%d lines, %d teed, %d records", len(lines), len(teed), len(evs))
	}
	for i, ev := range evs {
		want, err := json.Marshal(ev)
		if err != nil {
			ev.Attrs = map[string]any{"marshal_error": err.Error()}
			want, _ = json.Marshal(ev)
		}
		if lines[i] != string(want) || teed[i] != string(want) || types[i] != ev.Type {
			t.Fatalf("record %d:\n line %s\n tee  %s (%s)\n want %s", i, lines[i], teed[i], types[i], want)
		}
	}
	if !strings.Contains(buf.String(), `"marshal_error":"json: unsupported value: NaN"`) {
		t.Fatalf("NaN attribute not reported:\n%s", buf.String())
	}
}

// fanout emits every record into several sinks.
type fanout []Sink

func (f fanout) Emit(ev Event) {
	for _, s := range f {
		s.Emit(ev)
	}
}
