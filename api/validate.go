package api

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Validate decodes data as the named wire message and checks it against
// the schema this package implements. The decode is strict — unknown
// fields are an error — so it catches both malformed examples and
// documentation drift (a documented field the schema no longer has).
// Supported kinds are the exported top-level message names:
// "JobRequest", "JobStatus", "JobResult", "MetricsSnapshot",
// "ServerStatus", "ErrorReply", "WorkerHello", "WorkerWelcome",
// "WorkerHeartbeat", "ShardRequest", and "ShardResult".
//
// docs/wire-api.md annotates every example JSON block with one of these
// kinds, and a test round-trips each through this function; that is the
// mechanism keeping the wire reference honest.
func Validate(kind string, data []byte) error {
	decode := func(v any) error { return decodeStrict(kind, data, v) }
	version := func(v int) error {
		if v < 1 || v > Version {
			return fmt.Errorf("api: %s version %d outside v1..v%d", kind, v, Version)
		}
		return nil
	}
	switch kind {
	case "JobRequest":
		var m JobRequest
		if err := decode(&m); err != nil {
			return err
		}
		return m.Validate()
	case "JobStatus":
		var m JobStatus
		if err := decode(&m); err != nil {
			return err
		}
		if m.ID == "" {
			return fmt.Errorf("api: job status without id")
		}
		return version(m.V)
	case "JobResult":
		var m JobResult
		if err := decode(&m); err != nil {
			return err
		}
		return version(m.V)
	case "MetricsSnapshot":
		var m MetricsSnapshot
		if err := decode(&m); err != nil {
			return err
		}
		return version(m.V)
	case "ServerStatus":
		var m ServerStatus
		if err := decode(&m); err != nil {
			return err
		}
		return version(m.V)
	case "ErrorReply":
		var m ErrorReply
		if err := decode(&m); err != nil {
			return err
		}
		return version(m.V)
	case "WorkerHello":
		var m WorkerHello
		if err := decode(&m); err != nil {
			return err
		}
		return m.Validate()
	case "WorkerWelcome":
		var m WorkerWelcome
		if err := decode(&m); err != nil {
			return err
		}
		return m.Validate()
	case "WorkerHeartbeat":
		var m WorkerHeartbeat
		if err := decode(&m); err != nil {
			return err
		}
		return m.Validate()
	case "ShardRequest":
		var m ShardRequest
		if err := decode(&m); err != nil {
			return err
		}
		return m.Validate()
	case "ShardResult":
		var m ShardResult
		if err := decode(&m); err != nil {
			return err
		}
		return m.Validate()
	default:
		return fmt.Errorf("api: unknown message kind %q", kind)
	}
}

// decodeStrict decodes data as one kind message into v: unknown fields
// and trailing data after the first JSON value are errors.
func decodeStrict(kind string, data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: decode %s: %w", kind, err)
	}
	// Reject trailing garbage after the first JSON value.
	if dec.More() {
		return fmt.Errorf("api: decode %s: trailing data after message", kind)
	}
	return nil
}
