package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sealedJournal runs fn against a fresh tracer and returns the sealed
// JSONL bytes.
func sealedJournal(t *testing.T, fn func(tr *Tracer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := New(j)
	fn(tr)
	tr.Finish(nil)
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	return buf.Bytes()
}

func TestStitchProducesValidJournal(t *testing.T) {
	coord := sealedJournal(t, func(tr *Tracer) {
		ctx, sp := tr.Start(context.Background(), "run")
		tr.Event(ctx, "shard_assign", String("shard", "j/s0"))
		tr.Event(ctx, "shard_assign", String("shard", "j/s1"))
		sp.End()
	})
	shardA := sealedJournal(t, func(tr *Tracer) {
		ctx, sp := tr.Start(context.Background(), "shard")
		_, inner := tr.Start(ctx, "optimize")
		inner.End()
		sp.End()
	})
	shardB := sealedJournal(t, func(tr *Tracer) {
		_, sp := tr.Start(context.Background(), "shard")
		sp.End()
	})

	out, err := Stitch(coord, []ShardJournal{
		{Shard: "j/s0", Worker: "w1", OffsetNS: 1000, Data: shardA},
		{Shard: "j/s1", Worker: "w2", OffsetNS: 2000, Data: shardB},
	})
	if err != nil {
		t.Fatalf("stitch: %v", err)
	}

	st, err := Validate(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("stitched journal invalid: %v\n%s", err, out)
	}
	if st.Version != SchemaVersion {
		t.Fatalf("stitched version %d, want %d", st.Version, SchemaVersion)
	}
	if st.Terminal != TypeRunEnd {
		t.Fatalf("stitched terminal %q", st.Terminal)
	}
	// 1 coordinator span + 2 shard-A spans + 1 shard-B span.
	if st.Spans != 4 {
		t.Fatalf("stitched spans %d, want 4", st.Spans)
	}
	text := string(out)
	if !strings.Contains(text, `"shard":"j/s0"`) || !strings.Contains(text, `"shard":"j/s1"`) {
		t.Fatalf("stitched journal missing shard tags:\n%s", text)
	}
	if !strings.Contains(text, `"worker":"w1"`) {
		t.Fatalf("stitched journal missing worker tag:\n%s", text)
	}
	if strings.Count(text, `"type":"run_start"`) != 1 {
		t.Fatalf("stitched journal must contain exactly one run_start:\n%s", text)
	}
	if strings.Count(text, `"type":"run_end"`) != 1 {
		t.Fatalf("stitched journal must contain exactly one run_end:\n%s", text)
	}
}

func TestStitchShiftsShardTimestamps(t *testing.T) {
	coord := sealedJournal(t, func(tr *Tracer) {})
	shard := []byte(`{"ts":0,"type":"run_start","v":4}
{"ts":5,"type":"span_start","name":"shard","span":1}
{"ts":9,"type":"span_end","name":"shard","span":1,"dur_ns":4}
{"ts":10,"type":"run_end"}
`)
	out, err := Stitch(coord, []ShardJournal{{Shard: "s", OffsetNS: 100, Data: shard}})
	if err != nil {
		t.Fatalf("stitch: %v", err)
	}
	if !strings.Contains(string(out), `"ts":105`) || !strings.Contains(string(out), `"ts":109`) {
		t.Fatalf("timestamps not shifted:\n%s", out)
	}
}

func TestStitchRejectsBadInputs(t *testing.T) {
	coord := sealedJournal(t, func(tr *Tracer) {})
	unsealed := []byte(`{"ts":0,"type":"run_start","v":4}
{"ts":5,"type":"span_start","name":"shard","span":1}
`)
	if _, err := Stitch(coord, []ShardJournal{{Shard: "s", Data: unsealed}}); err == nil {
		t.Fatal("unsealed shard journal accepted")
	}
	canceled := []byte(`{"ts":0,"type":"run_start","v":4}
{"ts":5,"type":"run_canceled"}
`)
	if _, err := Stitch(coord, []ShardJournal{{Shard: "s", Data: canceled}}); err == nil {
		t.Fatal("canceled shard journal accepted")
	}
	if _, err := Stitch(nil, nil); err == nil {
		t.Fatal("empty coordinator journal accepted")
	}
	headless := []byte(`{"ts":5,"type":"span_start","name":"x","span":1}
{"ts":9,"type":"run_end"}
`)
	if _, err := Stitch(coord, []ShardJournal{{Shard: "s", Data: headless}}); err == nil {
		t.Fatal("shard journal without run_start accepted")
	}
	if _, err := Stitch(coord, []ShardJournal{{Shard: "s", OffsetNS: -1, Data: canceled}}); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestStitchRejectsMalformedShardLines: a shard record that is not
// valid JSON fails the stitch, wherever in the record the damage is, as
// it failed the decoding stitch; so does one the journal never writes.
func TestStitchRejectsMalformedShardLines(t *testing.T) {
	coord := sealedJournal(t, func(tr *Tracer) {})
	for _, bad := range []struct {
		line    string
		invalid bool // also rejected by the decoding stitch
	}{
		{`{"ts":5,"type":"span_start","name":"x","span":1`, true},
		{`not json at all`, true},
		{`{"ts":"5","type":"event"}`, true},
		{`{"ts":5,"type":"event","attrs":{"a":tru}}`, true},
		{`{"ts":5,"type":"event","attrs":{"a":"\q"}}`, true},
		{`{"ts":5,"type":"event","attrs":{"a":[1,}}`, true},
		{`{"ts":5,"type":"event","attrs":{"a":1}}}`, true},
		{`{"ts":5,"type":"event","name":"x\u00"}`, true},
		{`{"ts":5,"type":"span_end","span":1,"dur_ns":1.5}`, true},
		{`{"ts":05,"type":"event"}`, true},
		{`{"ts":5,"type":"event","attrs":{"a":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `}}`, true},
		{`{"type":"event","ts":5}`, false},
		{`{"ts":5, "type":"event"}`, false},
		{`{"ts":5,"type":"event","attrs":{"a":1},"x":2}`, false},
	} {
		data := []byte(`{"ts":0,"type":"run_start","v":4}` + "\n" + bad.line + "\n" + `{"ts":9,"type":"run_end"}` + "\n")
		if _, err := Stitch(coord, []ShardJournal{{Shard: "s", Worker: "w1", Data: data}}); err == nil {
			t.Errorf("malformed shard line accepted: %s", bad.line)
		}
		if bad.invalid {
			if err := referenceStitch(io.Discard, coord, []ShardJournal{{Shard: "s", Worker: "w1", Data: data}}); err == nil {
				t.Errorf("reference accepted %s", bad.line)
			}
		}
	}
}

// TestStitchMatchesReference: every record of the byte-patching stitch
// decodes to the record the decoding stitch wrote, on journals with
// records without attrs, shard spans that already carry a "shard"
// attribute, engine.task spans whose integer "worker" the stitch
// replaces, attribute keys on both sides of the tags, and strings that
// need escaping. Here the lines are byte-identical too: every number in
// the attributes survives the reference's float64 round trip, so its
// re-encoding writes the same digits.
func TestStitchMatchesReference(t *testing.T) {
	coord := sealedJournal(t, func(tr *Tracer) {
		ctx, sp := tr.Start(context.Background(), "run", String("job", "j"))
		tr.Event(ctx, "worker_join", String("worker", "w1"), String("name", "alpha"), Int("pid", 7))
		tr.Event(ctx, "shard_assign", String("shard", "j/s0"), String("worker", "w1"))
		tr.Emit("bare")
		sp.End()
	})
	shard := func(n int) []byte {
		return sealedJournal(t, func(tr *Tracer) {
			ctx, sp := tr.Start(context.Background(), "shard", String("shard", fmt.Sprintf("j/s%d", n)), Int("faults", 2))
			for w := 0; w < 2; w++ {
				tctx, task := tr.Start(ctx, "engine.task", Int("index", w), Int("worker", w))
				tr.Event(tctx, "cache_miss")
				tr.Event(tctx, "fault_verdict", String("fault", "bridge:a<b&c"), String("verdict", "detected\u2028\x01"),
					F64("sf", 0.25), F64("tiny", 1e-9), Bool("ok", true), Any("path", []string{"x", "y"}))
				tr.Complete("sim.transient", time.Microsecond, I64("stamps", 120), I64("solves", 3))
				task.End(String("zz", "last"), String("a", "first"))
			}
			sp.End()
		})
	}
	shards := []ShardJournal{
		{Shard: "j/s0", Worker: "w1", OffsetNS: 1500, Data: shard(0)},
		{Shard: "j/s1", Worker: "w\"2", OffsetNS: 900, Data: shard(1)},
		{Shard: "j/s2", OffsetNS: 0, Data: shard(2)},
	}
	var want bytes.Buffer
	if err := referenceStitch(&want, coord, shards); err != nil {
		t.Fatal(err)
	}
	got, err := Stitch(coord, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(bytes.NewReader(got)); err != nil {
		t.Fatalf("stitched journal invalid: %v", err)
	}
	if cap(got) != len(got) {
		t.Errorf("output capacity %d, length %d: not sized once", cap(got), len(got))
	}
	gotLines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(want.String(), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d stitched records, reference has %d", len(gotLines), len(wantLines))
	}
	tasks := 0
	for i := range gotLines {
		var g, w Event
		if err := json.Unmarshal([]byte(gotLines[i]), &g); err != nil {
			t.Fatalf("record %d: %v: %s", i+1, err, gotLines[i])
		}
		if err := json.Unmarshal([]byte(wantLines[i]), &w); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d differs:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
		if gotLines[i] != wantLines[i] {
			t.Errorf("record %d bytes differ:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
		if g.Name == "engine.task" && g.Type == TypeSpanStart {
			tasks++
			if strings.Count(gotLines[i], `"worker":`) != 1 {
				t.Errorf("record %d names its worker twice: %s", i+1, gotLines[i])
			}
		}
	}
	if tasks != 6 {
		t.Fatalf("%d engine.task spans stitched, want 6", tasks)
	}
}

// FuzzStitchRecord stitches one arbitrary shard record: the stitch
// rejects every line that is not valid JSON, and whenever both it and
// the decoding stitch accept a line, their records decode equal.
func FuzzStitchRecord(f *testing.F) {
	f.Add(`{"ts":5,"type":"span_start","name":"engine.task","span":3,"parent":1,"attrs":{"index":0,"worker":1}}`)
	f.Add(`{"ts":5,"type":"event","name":"x","span":3,"attrs":{"a":[1,{"b":null}],"shard":"old","zz":-0.5e-3}}`)
	f.Add(`{"ts":-5,"type":"span_end","name":"sim.op","span":9,"dur_ns":4,"attrs":{"stamps":12}}`)
	f.Add(`{"ts":5,"type":"event","attrs":{"\u0073hard":1,"w\"":"\ud83d\ude00"}}`)
	f.Add(`{"ts":5,"type":"event","attrs":{}}`)
	f.Add(`{"ts":5,"type":"event","attrs":{"a":tru}}`)
	f.Add(`{"ts":5,"type":"event","name":"x\u00"}`)
	coord := []byte(`{"ts":0,"type":"run_start","v":4}` + "\n" + `{"ts":1,"type":"span_start","name":"run","span":2}` + "\n" + `{"ts":9,"type":"run_end"}` + "\n")
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\r\n") || len(bytes.TrimSpace([]byte(line))) == 0 {
			t.Skip()
		}
		data := []byte(`{"ts":0,"type":"run_start","v":4}` + "\n" + line + "\n" + `{"ts":9,"type":"run_end"}` + "\n")
		shards := []ShardJournal{{Shard: "j/s0", Worker: "w1", OffsetNS: 7, Data: data}}
		got, err := Stitch(coord, shards)
		if err != nil {
			return
		}
		if !json.Valid(bytes.TrimSpace([]byte(line))) {
			t.Fatalf("stitch accepted invalid JSON %q", line)
		}
		var want bytes.Buffer
		if referenceStitch(&want, coord, shards) != nil {
			return
		}
		g := strings.Split(string(got), "\n")
		w := strings.Split(want.String(), "\n")
		if len(g) != len(w) {
			t.Fatalf("%d records, reference %d", len(g), len(w))
		}
		for i := range g {
			if g[i] == w[i] {
				continue
			}
			var ge, we Event
			if err := json.Unmarshal([]byte(g[i]), &ge); err != nil {
				t.Fatalf("stitched record %q: %v", g[i], err)
			}
			if err := json.Unmarshal([]byte(w[i]), &we); err != nil {
				t.Fatal(err)
			}
			if len(ge.Attrs) == 0 && len(we.Attrs) == 0 {
				ge.Attrs, we.Attrs = nil, nil
			}
			if !reflect.DeepEqual(ge, we) {
				t.Fatalf("record differs:\n got  %s\n want %s", g[i], w[i])
			}
		}
	})
}

// referenceStitch is the decoding stitch the byte-patching Stitch
// replaced, kept as its oracle: it decodes every record into an Event,
// patches the struct and marshals it again.
func referenceStitch(w io.Writer, coordinator []byte, shards []ShardJournal) error {
	coord, err := referenceParse(coordinator)
	if err != nil {
		return fmt.Errorf("obs: stitch: coordinator journal: %w", err)
	}
	last := coord[len(coord)-1]
	if last.Type != TypeRunEnd && last.Type != TypeRunCanceled {
		return fmt.Errorf("obs: stitch: coordinator journal ends with %q, want a terminal record", last.Type)
	}
	body := coord[:len(coord)-1]

	bw := bufio.NewWriterSize(w, 64<<10)
	offset := uint64(0)
	for _, ev := range coord {
		if ev.Span > offset {
			offset = ev.Span
		}
		if ev.Parent > offset {
			offset = ev.Parent
		}
	}
	for _, ev := range body {
		if err := referenceWrite(bw, ev); err != nil {
			return err
		}
	}
	for _, sh := range shards {
		if sh.OffsetNS < 0 {
			return fmt.Errorf("obs: stitch: shard %q: negative time offset %d", sh.Shard, sh.OffsetNS)
		}
		evs, err := referenceParse(sh.Data)
		if err != nil {
			return fmt.Errorf("obs: stitch: shard %q journal: %w", sh.Shard, err)
		}
		if evs[0].Type != TypeRunStart {
			return fmt.Errorf("obs: stitch: shard %q journal starts with %q, want %q", sh.Shard, evs[0].Type, TypeRunStart)
		}
		if evs[len(evs)-1].Type != TypeRunEnd {
			return fmt.Errorf("obs: stitch: shard %q journal ends with %q, want %q", sh.Shard, evs[len(evs)-1].Type, TypeRunEnd)
		}
		next := offset
		for _, ev := range evs[1 : len(evs)-1] {
			if ev.Span != 0 {
				ev.Span += offset
				if ev.Span > next {
					next = ev.Span
				}
			}
			if ev.Parent != 0 {
				ev.Parent += offset
				if ev.Parent > next {
					next = ev.Parent
				}
			}
			ev.TS += sh.OffsetNS
			if ev.Type == TypeSpanStart || ev.Type == TypeEvent {
				if ev.Attrs == nil {
					ev.Attrs = make(map[string]any, 2)
				}
				ev.Attrs["shard"] = sh.Shard
				if sh.Worker != "" {
					ev.Attrs["worker"] = sh.Worker
				}
			}
			if err := referenceWrite(bw, ev); err != nil {
				return err
			}
		}
		offset = next
	}
	if err := referenceWrite(bw, last); err != nil {
		return err
	}
	return bw.Flush()
}

// referenceParse decodes a JSONL journal into events, requiring at
// least one record.
func referenceParse(data []byte) ([]Event, error) {
	var evs []Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		line++
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("line %d: invalid JSON: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("empty journal")
	}
	return evs, nil
}

// referenceWrite appends one record line to the stitched journal.
func referenceWrite(bw *bufio.Writer, ev Event) error {
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("obs: stitch: marshal record: %w", err)
	}
	if _, err := bw.Write(line); err != nil {
		return fmt.Errorf("obs: stitch: %w", err)
	}
	return bw.WriteByte('\n')
}
