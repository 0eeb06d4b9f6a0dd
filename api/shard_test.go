package api

import (
	"encoding/json"
	"strings"
	"testing"
)

func validShardRequest() ShardRequest {
	return ShardRequest{
		V:        Version,
		JobID:    "job-1",
		ShardID:  "job-1/s0",
		Seq:      0,
		Total:    2,
		FaultIDs: []string{"M1:GDS", "M2:DSS"},
		Request: JobRequest{
			V:     Version,
			Macro: MacroSpec{Builtin: MacroIVConverter},
		},
	}
}

func TestShardMessagesRoundTrip(t *testing.T) {
	msgs := []any{
		WorkerHello{V: Version, Name: "w-a", PID: 42},
		WorkerWelcome{V: Version, WorkerID: "w1", LeaseMS: 10000, PollMS: 15000},
		WorkerHeartbeat{V: Version, WorkerID: "w1", ShardID: "job-1/s0", Done: 3},
		validShardRequest(),
		ShardResult{
			V: Version, JobID: "job-1", ShardID: "job-1/s0", WorkerID: "w1",
			Solutions: []ShardSolution{{
				FaultID: "M1:GDS", ConfigIdx: 2, Params: []float64{1.5, 0.2},
				Sensitivity: 0.9, CriticalImpact: 12.5, Evals: 100, ImpactIters: 7,
			}},
			Quarantined: []QuarantineInfo{{FaultID: "M2:DSS", Config: 1, Phase: "optimize", Reason: "panic"}},
			Journal:     []byte("{\"type\":\"run_start\"}\n"),
			ElapsedMS:   1234,
		},
	}
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		// Decode into a fresh value of the same dynamic type and re-encode:
		// the canonical form must be a fixed point.
		var back any
		switch m.(type) {
		case WorkerHello:
			v := WorkerHello{}
			if err := json.Unmarshal(b, &v); err != nil {
				t.Fatalf("decode %T: %v", m, err)
			}
			back = v
		case WorkerWelcome:
			v := WorkerWelcome{}
			if err := json.Unmarshal(b, &v); err != nil {
				t.Fatalf("decode %T: %v", m, err)
			}
			back = v
		case WorkerHeartbeat:
			v := WorkerHeartbeat{}
			if err := json.Unmarshal(b, &v); err != nil {
				t.Fatalf("decode %T: %v", m, err)
			}
			back = v
		case ShardRequest:
			v := ShardRequest{}
			if err := json.Unmarshal(b, &v); err != nil {
				t.Fatalf("decode %T: %v", m, err)
			}
			back = v
		case ShardResult:
			v := ShardResult{}
			if err := json.Unmarshal(b, &v); err != nil {
				t.Fatalf("decode %T: %v", m, err)
			}
			back = v
		}
		b2, err := Encode(back)
		if err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		if string(b) != string(b2) {
			t.Fatalf("%T round trip not byte-stable:\n%s\nvs\n%s", m, b, b2)
		}
	}
}

func TestShardRequestValidate(t *testing.T) {
	if err := validShardRequest().Validate(); err != nil {
		t.Fatalf("valid shard request rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ShardRequest)
		want   string
	}{
		{"future version", func(s *ShardRequest) { s.V = Version + 1 }, "version"},
		{"zero version", func(s *ShardRequest) { s.V = 0 }, "version"},
		{"no job id", func(s *ShardRequest) { s.JobID = "" }, "job_id"},
		{"no shard id", func(s *ShardRequest) { s.ShardID = "" }, "job_id"},
		{"seq out of range", func(s *ShardRequest) { s.Seq = 2 }, "seq"},
		{"negative seq", func(s *ShardRequest) { s.Seq = -1 }, "seq"},
		{"no faults", func(s *ShardRequest) { s.FaultIDs = nil }, "fault_ids"},
		{"bad embedded request", func(s *ShardRequest) { s.Request.Macro.Builtin = "nope" }, "macro"},
	}
	for _, tc := range cases {
		s := validShardRequest()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestShardResultValidate(t *testing.T) {
	ok := ShardResult{V: Version, JobID: "j", ShardID: "j/s0", WorkerID: "w1"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid shard result rejected: %v", err)
	}
	bad := ok
	bad.WorkerID = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("shard result without worker_id accepted")
	}
	bad = ok
	bad.Solutions = []ShardSolution{{FaultID: ""}}
	if err := bad.Validate(); err == nil {
		t.Fatal("shard solution without fault_id accepted")
	}
	bad = ok
	bad.Solutions = []ShardSolution{{FaultID: "f", Evals: -1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative effort counters accepted")
	}
}

func TestWorkerMessageValidate(t *testing.T) {
	if err := (WorkerHello{V: Version}).Validate(); err != nil {
		t.Fatalf("minimal hello rejected: %v", err)
	}
	if err := (WorkerHello{V: Version + 9}).Validate(); err == nil {
		t.Fatal("future hello accepted")
	}
	if err := (WorkerWelcome{V: Version, WorkerID: "w", LeaseMS: 1}).Validate(); err != nil {
		t.Fatalf("minimal welcome rejected: %v", err)
	}
	if err := (WorkerWelcome{V: Version, WorkerID: "", LeaseMS: 1}).Validate(); err == nil {
		t.Fatal("welcome without worker_id accepted")
	}
	if err := (WorkerWelcome{V: Version, WorkerID: "w"}).Validate(); err == nil {
		t.Fatal("welcome without lease accepted")
	}
	if err := (WorkerHeartbeat{V: Version, WorkerID: "w"}).Validate(); err != nil {
		t.Fatalf("minimal heartbeat rejected: %v", err)
	}
	if err := (WorkerHeartbeat{V: Version}).Validate(); err == nil {
		t.Fatal("heartbeat without worker_id accepted")
	}
}

func TestGenericValidate(t *testing.T) {
	req, err := Encode(validShardRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate("ShardRequest", req); err != nil {
		t.Fatalf("Validate(ShardRequest): %v", err)
	}
	if err := Validate("JobRequest", []byte(`{"v":1,"macro":{"builtin":"iv-converter"}}`)); err != nil {
		t.Fatalf("Validate(JobRequest): %v", err)
	}
	if err := Validate("JobRequest", []byte(`{"v":1,"nope":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := Validate("JobRequest", []byte(`{"v":1} {"v":1}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if err := Validate("Bogus", []byte(`{}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := Validate("ErrorReply", []byte(`{"v":1,"error":"queue full","retry_after_ms":250}`)); err != nil {
		t.Fatalf("Validate(ErrorReply): %v", err)
	}
	if err := Validate("ServerStatus", []byte(`{"v":99,"state":"serving","uptime_ms":1,"queue_depth":0,"queue_cap":64,"jobs":{}}`)); err == nil {
		t.Fatal("future server status accepted")
	}
}
