package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJournalValidate feeds arbitrary bytes to the journal validator:
// atpgd validates sealed journals from disk after crashes and chaos
// runs, so no input — truncated, interleaved, binary garbage — may
// panic it. Validation must also be deterministic: the same bytes give
// the same verdict on a second pass.
func FuzzJournalValidate(f *testing.F) {
	f.Add([]byte(`{"ts":0,"type":"run_start","v":1}
{"ts":5,"type":"span_start","id":1,"name":"optimize"}
{"ts":9,"type":"span_end","id":1}
{"ts":20,"type":"run_end"}
`))
	f.Add([]byte(`{"ts":0,"type":"run_start","v":2}
{"ts":10,"type":"event","name":"quarantine","attrs":{"fault":"x","reason":"panic"}}
{"ts":20,"type":"run_end"}
`))
	f.Add([]byte(`{"ts":0,"type":"run_start","v":3}
{"ts":10,"type":"event","name":"breaker_trip","attrs":{"threshold":5}}
{"ts":12,"type":"event","name":"breaker_reset","attrs":{"trips":1}}
{"ts":20,"type":"run_end"}
`))
	f.Add([]byte(`{"ts":0,"type":"run_start","v":4}`))
	f.Add([]byte(`{"ts":0,"type":"run_start","v":1}
{"ts":1,"type":"span_start","id":1,"name":"x"}`))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte(""))
	f.Add([]byte("{\"ts\":0,\"type\":\"run_start\",\"v\":1}\n\x00\xff\xfe\n"))
	f.Add([]byte(`{"ts":0,"type":"run_start","v":1}
{"ts":10,"type":"run_canceled"}
`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st1, err1 := Validate(bytes.NewReader(data))
		st2, err2 := Validate(bytes.NewReader(data))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("validation verdict flapped: %v vs %v", err1, err2)
		}
		if err1 == nil && st1 != st2 {
			t.Fatalf("validation stats flapped: %+v vs %+v", st1, st2)
		}
	})
}

// FuzzEventEncode checks the journal's record encoder against
// encoding/json: for any record, appendEvent writes the bytes
// json.Marshal(ev) returns, and when json.Marshal fails on an
// attribute, the bytes of the same record with {"marshal_error": <the
// error>} as its attributes. The fuzzed strings go into every string
// position (type, name, an attribute key and value); kind picks the
// shape of one more attribute, from the fast forms to values only
// json.Marshal encodes and values it cannot.
func FuzzEventEncode(f *testing.F) {
	f.Add(int64(0), "run_start", "", uint64(0), uint64(0), int64(0), 4, "", "", 0.0, int64(0), false, uint8(0), false)
	f.Add(int64(-7), "event", "q\"uote", uint64(1), uint64(2), int64(3), 0, "k", "<a&b>", 1e-6, int64(-1), true, uint8(1), true)
	f.Add(int64(5), "span_end", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", uint64(9), uint64(0), int64(-4), 0, "\\", "\xff\xfe bad utf8 \xc3", 9.999999999999999e-7, int64(1<<62), false, uint8(2), true)
	f.Add(int64(1<<40), "span_start", "sep\u2028\u2029", uint64(1<<63), uint64(3), int64(0), 0, "\u2028", "é日本\U0001F600", 1e21, int64(12), true, uint8(3), true)
	f.Add(int64(1), "event", "n", uint64(0), uint64(0), int64(0), 0, "zz", "v", 9.99999999999e20, int64(0), false, uint8(4), true)
	f.Add(int64(2), "event", "n", uint64(0), uint64(0), int64(0), 0, "a", "v", math.NaN(), int64(0), false, uint8(0), true)
	f.Add(int64(3), "event", "n", uint64(0), uint64(0), int64(0), 0, "a", "v", math.Inf(1), int64(0), false, uint8(5), true)
	f.Add(int64(4), "event", "n", uint64(0), uint64(0), int64(0), 0, "a", "v", math.Inf(-1), int64(0), false, uint8(6), true)
	f.Add(int64(5), "event", "n", uint64(0), uint64(0), int64(0), 0, "a", "v", -0.0, int64(0), false, uint8(7), true)
	f.Add(int64(6), "event", "n", uint64(0), uint64(0), int64(0), 0, "a", "v", 123456789.125, int64(0), false, uint8(8), true)
	f.Add(int64(7), "event", "n", uint64(0), uint64(0), int64(0), 0, "a", "1e400", 5e-324, int64(0), false, uint8(9), true)

	f.Fuzz(func(t *testing.T, ts int64, typ, name string, span, parent uint64, dur int64, v int, key, s string, x float64, i int64, b bool, kind uint8, withAttrs bool) {
		ev := Event{TS: ts, Type: typ, Name: name, Span: span, Parent: parent, Dur: dur, V: v}
		if withAttrs {
			ev.Attrs = map[string]any{key: s, "f": x, "i": i, "u": uint64(i), "n": int(i), "b": b, "nil": nil}
			switch kind % 10 {
			case 1:
				ev.Attrs["any"] = []string{s, key}
			case 2:
				ev.Attrs["any"] = map[string]any{s: x, key: []any{i, b}}
			case 3:
				ev.Attrs["any"] = struct {
					A string  `json:"a"`
					F float64 `json:"f,omitempty"`
				}{s, x}
			case 4:
				ev.Attrs["any"] = float32(x)
			case 5:
				ev.Attrs["any"] = json.Number(s)
			case 6:
				ev.Attrs["any"] = make(chan int)
			case 7:
				ev.Attrs["any"] = json.RawMessage(s)
			case 8:
				ev.Attrs["any"] = int8(i)
			case 9:
				ev.Attrs["any"] = map[string]any{}
			}
		}
		got := appendEvent(nil, ev)
		want, err := json.Marshal(ev)
		if err != nil {
			ev.Attrs = map[string]any{"marshal_error": err.Error()}
			if want, err = json.Marshal(ev); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder and json.Marshal differ:\n got  %s\n want %s", got, want)
		}
	})
}
