package api

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobRequestValidate hammers the submission path with arbitrary
// bytes: whatever a client puts on the wire, Normalize+Validate must
// never panic, and a request Validate accepts must round-trip through
// Encode/Unmarshal without changing its validity — the server decodes
// what it stored and must not suddenly reject it.
func FuzzJobRequestValidate(f *testing.F) {
	f.Add([]byte(`{"v":1,"faults":{"limit":6},"options":{"box_mode":"seed"}}`))
	f.Add([]byte(`{"v":1,"macro":{"builtin":"iv-converter"},"compact":{"delta":0.05}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":99}`))
	f.Add([]byte(`{"v":1,"options":{"workers":-3}}`))
	f.Add([]byte(`{"v":1,"options":{"stall_timeout_ms":100,"breaker_fallbacks":5}}`))
	f.Add([]byte(`{"v":1,"macro":{"builtin":"nope"}}`))
	f.Add([]byte(`{"v":1,"compact":{"delta":1.5}}`))
	f.Add([]byte(`{"v":-1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"v":1,"faults":{"limit":-9}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a JobRequest; nothing to validate
		}
		req.Normalize()
		if err := req.Validate(); err != nil {
			return
		}
		// Accepted requests must survive the store/reload cycle.
		b, err := Encode(req)
		if err != nil {
			t.Fatalf("Encode of a valid request failed: %v", err)
		}
		var back JobRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decode of a valid request failed: %v", err)
		}
		back.Normalize()
		if err := back.Validate(); err != nil {
			t.Fatalf("request changed validity across Encode/decode: %v", err)
		}
	})
}

// FuzzShardResultBody hammers the coordinator's parse of a shard result
// body (header line, newline, journal bytes): it must never panic, and a
// body it accepts must re-frame — Header plus the journal — to a body
// that parses to the same header fields and the same journal bytes.
func FuzzShardResultBody(f *testing.F) {
	header := `{"v":1,"job_id":"j","shard_id":"j/s0","worker_id":"w1","solutions":[{"fault_id":"M1:GDS","config_idx":2,"params":[1.5,0.2],"sensitivity":0.9,"critical_impact":12.5,"evals":100,"impact_iters":7}],"elapsed_ms":3}`
	f.Add([]byte(header + "\n" + `{"ts":0,"type":"run_start","attrs":{"q":"\"\\<&>\u2028"}}` + "\n"))
	f.Add([]byte(header))
	f.Add([]byte(header + "\n"))
	f.Add([]byte(header + "\n\n\n"))
	f.Add([]byte(header + "\nraw \xff\xfe bytes \u2028 without a newline"))
	f.Add([]byte(`{"v":1,"job_id":"j","shard_id":"j/s0","worker_id":"w1","solutions":[],"quarantined":[]}` + "\n{}\n"))
	f.Add([]byte(`{"v":1,"job_id":"j","shard_id":"j/s0","worker_id":"w1","solutions":null,"journal":"x"}`))
	f.Add([]byte(`{"v":1,"job_id":"j","shard_id":"j/s0","worker_id":"w1"} {}` + "\n"))
	f.Add([]byte("{\n\"v\":1}\n"))
	f.Add([]byte("\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := ParseShardResult(body)
		if err != nil {
			return
		}
		if i := bytes.IndexByte(body, '\n'); i < 0 || i == len(body)-1 {
			if res.Journal != nil {
				t.Fatalf("body without journal bytes parsed to journal %q", res.Journal)
			}
		} else if !bytes.Equal(res.Journal, body[i+1:]) {
			t.Fatalf("journal %q, want the body after its first newline", res.Journal)
		}
		h, err := res.Header()
		if err != nil {
			t.Fatalf("Header of an accepted result: %v", err)
		}
		if bytes.Count(h, []byte("\n")) != 1 || h[len(h)-1] != '\n' {
			t.Fatalf("header %q is not one line", h)
		}
		back, err := ParseShardResult(append(h, res.Journal...))
		if err != nil {
			t.Fatalf("re-framed body rejected: %v", err)
		}
		if !bytes.Equal(back.Journal, res.Journal) {
			t.Fatalf("re-framed journal %q, want %q", back.Journal, res.Journal)
		}
		h2, err := back.Header()
		if err != nil || !bytes.Equal(h2, h) {
			t.Fatalf("re-framed header %q (%v), want %q", h2, err, h)
		}
	})
}
