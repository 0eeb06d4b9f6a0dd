// Shard protocol: the messages exchanged between a coordinating atpgd
// and its registered workers when a job runs in distributed mode. The
// protocol is pull-based — workers register with WorkerHello, long-poll
// the coordinator for ShardRequests, stream liveness and progress back
// with WorkerHeartbeat, and return ShardResults. All messages ride the
// same schema version ("v") as the job messages. The protocol is spoken
// between a coordinator and workers of one build (a worker is the same
// atpgd binary), so it may change without a version bump: a result
// body is a JSON header line followed by the raw shard journal
// (ShardResult.Header, ParseShardResult).
//
// Determinism contract: a ShardResult carries, per fault, exactly the
// fields of the engine's checkpoint record — the set proven sufficient
// to rebuild a solution bit-identically (see DESIGN.md §12). The
// coordinator merges shard solutions in fault-dictionary order, so the
// final JobResult is byte-identical to a single-node run regardless of
// shard count, assignment order, worker deaths, or retries.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// WorkerHello announces a worker to the coordinator
// (POST /v1/workers). The coordinator replies with a WorkerWelcome.
type WorkerHello struct {
	// V is the wire schema version.
	V int `json:"v"`
	// Name is an optional operator-chosen label, surfaced in Prometheus
	// worker series and journal events (a generated ID is used when
	// empty).
	Name string `json:"name,omitempty"`
	// PID is the worker's process ID, for operator forensics only.
	PID int `json:"pid,omitempty"`
}

// Validate checks the hello against the schema this package implements.
func (h WorkerHello) Validate() error {
	if h.V < 1 || h.V > Version {
		return fmt.Errorf("api: unsupported worker hello version %d (this server speaks v1..v%d)", h.V, Version)
	}
	if h.PID < 0 {
		return fmt.Errorf("api: negative worker pid %d", h.PID)
	}
	return nil
}

// WorkerWelcome is the coordinator's reply to a WorkerHello: the
// assigned worker identity and the lease/poll cadence the worker must
// honor.
type WorkerWelcome struct {
	// V is the wire schema version.
	V int `json:"v"`
	// WorkerID is the coordinator-assigned identity the worker presents
	// on every subsequent call.
	WorkerID string `json:"worker_id"`
	// LeaseMS is the shard lease: a worker holding a shard must check in
	// (poll, heartbeat, or result) at least this often or the shard is
	// re-queued and the worker presumed dead.
	LeaseMS int64 `json:"lease_ms"`
	// PollMS is the long-poll window of /v1/workers/{id}/poll — the
	// longest the coordinator holds an idle poll before answering 204.
	PollMS int64 `json:"poll_ms"`
}

// Validate checks the welcome against the schema this package
// implements.
func (w WorkerWelcome) Validate() error {
	if w.V < 1 || w.V > Version {
		return fmt.Errorf("api: unsupported worker welcome version %d (this client speaks v1..v%d)", w.V, Version)
	}
	if w.WorkerID == "" {
		return fmt.Errorf("api: worker welcome without worker_id")
	}
	if w.LeaseMS <= 0 {
		return fmt.Errorf("api: non-positive worker lease %d ms", w.LeaseMS)
	}
	return nil
}

// WorkerHeartbeat is a worker liveness and progress report
// (POST /v1/workers/{id}/heartbeat). It extends the lease of the named
// shard and feeds the coordinator's aggregated SSE progress stream.
type WorkerHeartbeat struct {
	// V is the wire schema version.
	V int `json:"v"`
	// WorkerID echoes the identity assigned in the WorkerWelcome.
	WorkerID string `json:"worker_id"`
	// ShardID names the shard the worker is computing ("" between
	// shards — a bare liveness ping).
	ShardID string `json:"shard_id,omitempty"`
	// Done counts the faults of the current shard finished so far; the
	// coordinator folds the delta into the job's progress snapshot.
	Done int64 `json:"done,omitempty"`
}

// Validate checks the heartbeat against the schema this package
// implements.
func (h WorkerHeartbeat) Validate() error {
	if h.V < 1 || h.V > Version {
		return fmt.Errorf("api: unsupported heartbeat version %d (this server speaks v1..v%d)", h.V, Version)
	}
	if h.WorkerID == "" {
		return fmt.Errorf("api: heartbeat without worker_id")
	}
	if h.Done < 0 {
		return fmt.Errorf("api: negative heartbeat done count %d", h.Done)
	}
	return nil
}

// ShardRequest is one unit of distributed work: a slice of a job's
// fault dictionary plus the full originating request, from which the
// worker rebuilds an identical session. Returned by a successful worker
// poll (POST /v1/workers/{id}/poll).
type ShardRequest struct {
	// V is the wire schema version.
	V int `json:"v"`
	// JobID names the coordinator job this shard belongs to.
	JobID string `json:"job_id"`
	// ShardID is unique per (job, shard); stable across reassignment, so
	// a retried shard produces an interchangeable result.
	ShardID string `json:"shard_id"`
	// Seq and Total place this shard in the job's partition (Seq in
	// [0, Total)).
	Seq int `json:"seq"`
	// Total is the number of shards the job was partitioned into.
	Total int `json:"total"`
	// FaultIDs selects the dictionary faults of this shard, in
	// dictionary order.
	FaultIDs []string `json:"fault_ids"`
	// Request is the originating job request; workers derive macro,
	// configurations, and session options from it so every shard of a
	// job computes against an identical system.
	Request JobRequest `json:"request"`
}

// Validate checks the shard request against the schema this package
// implements, including the embedded job request.
func (s ShardRequest) Validate() error {
	if s.V < 1 || s.V > Version {
		return fmt.Errorf("api: unsupported shard request version %d (this worker speaks v1..v%d)", s.V, Version)
	}
	if s.JobID == "" || s.ShardID == "" {
		return fmt.Errorf("api: shard request without job_id/shard_id")
	}
	if s.Total < 1 || s.Seq < 0 || s.Seq >= s.Total {
		return fmt.Errorf("api: shard seq %d outside partition of %d", s.Seq, s.Total)
	}
	if len(s.FaultIDs) == 0 {
		return fmt.Errorf("api: shard request without fault_ids")
	}
	return s.Request.Validate()
}

// ShardSolution is the wire form of one fault's solved state inside a
// ShardResult. It mirrors the engine's checkpoint record field for
// field — the minimal set from which the coordinator rebuilds the
// solution bit-identically (the same contract that makes kill/resume
// byte-stable).
type ShardSolution struct {
	// FaultID names the dictionary fault.
	FaultID string `json:"fault_id"`
	// ConfigIdx is the winning configuration index (-1: unresolved).
	ConfigIdx int `json:"config_idx"`
	// Params are the optimized test-condition parameters.
	Params []float64 `json:"params,omitempty"`
	// Sensitivity is S_f at the dictionary impact.
	Sensitivity float64 `json:"sensitivity"`
	// CriticalImpact is the detection threshold found by the impact
	// search.
	CriticalImpact float64 `json:"critical_impact"`
	// Undetectable, Undetermined, and Quarantined carry the fault's
	// terminal classification flags.
	Undetectable bool `json:"undetectable,omitempty"`
	Undetermined bool `json:"undetermined,omitempty"`
	Quarantined  bool `json:"quarantined,omitempty"`
	// Evals, ImpactIters, and Attempts reproduce the effort counters of
	// the original computation (they appear in the result, so they must
	// survive the wire round trip for byte identity).
	Evals       int `json:"evals"`
	ImpactIters int `json:"impact_iters"`
	Attempts    int `json:"attempts,omitempty"`
}

// ShardResult returns a completed shard to the coordinator
// (POST /v1/workers/{id}/result). Results are deterministic, so the
// coordinator accepts the first result for a shard and discards
// duplicates from presumed-dead workers that finished after all. The
// body of the post is the result's Header line followed by its journal
// bytes verbatim, so the journal is never escaped into a JSON string.
type ShardResult struct {
	// V is the wire schema version.
	V int `json:"v"`
	// JobID and ShardID echo the shard request.
	JobID   string `json:"job_id"`
	ShardID string `json:"shard_id"`
	// WorkerID identifies the computing worker, for journal attribution
	// and per-worker metrics.
	WorkerID string `json:"worker_id"`
	// Solutions holds one entry per shard fault, in dictionary order.
	Solutions []ShardSolution `json:"solutions"`
	// Quarantined lists fault×config tasks the worker's runtime isolated
	// (panic or stall), merged into the job's quarantine report.
	Quarantined []QuarantineInfo `json:"quarantined,omitempty"`
	// Journal is the shard's sealed observability journal (JSONL); the
	// coordinator stitches it into the job journal with shard-tagged
	// spans. It is not part of the JSON: it travels behind the header
	// line of the result body.
	Journal []byte `json:"-"`
	// ElapsedMS is the worker-side wall time of the shard.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// Validate checks the shard result against the schema this package
// implements.
func (s ShardResult) Validate() error {
	if s.V < 1 || s.V > Version {
		return fmt.Errorf("api: unsupported shard result version %d (this server speaks v1..v%d)", s.V, Version)
	}
	if s.JobID == "" || s.ShardID == "" {
		return fmt.Errorf("api: shard result without job_id/shard_id")
	}
	if s.WorkerID == "" {
		return fmt.Errorf("api: shard result without worker_id")
	}
	for i, sol := range s.Solutions {
		if sol.FaultID == "" {
			return fmt.Errorf("api: shard result solution %d without fault_id", i)
		}
		if sol.Evals < 0 || sol.ImpactIters < 0 || sol.Attempts < 0 {
			return fmt.Errorf("api: shard result solution %d with negative effort counters", i)
		}
	}
	if s.ElapsedMS < 0 {
		return fmt.Errorf("api: negative shard elapsed %d ms", s.ElapsedMS)
	}
	return nil
}

// Header returns the first line of the result's post body: the result
// without its journal as compact JSON, then a newline. The journal
// bytes follow it verbatim. Compact JSON escapes every control
// character inside strings, so the header holds no other newline.
func (s ShardResult) Header() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("api: encode shard result: %w", err)
	}
	return append(b, '\n'), nil
}

// ParseShardResult parses a result post body: the header line, decoded
// as strictly as Validate decodes a "ShardResult" and then validated,
// and the journal bytes after its newline. Journal aliases body rather
// than copying it, and is nil when the body ends with the header line
// or has no newline at all.
func ParseShardResult(body []byte) (ShardResult, error) {
	header, journal := body, []byte(nil)
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		header, journal = body[:i], body[i+1:]
	}
	var s ShardResult
	if err := decodeStrict("ShardResult", header, &s); err != nil {
		return ShardResult{}, err
	}
	if len(journal) > 0 {
		s.Journal = journal
	}
	return s, s.Validate()
}
