package repro_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/api"
)

// TestSystemFromRequestRoundTrip pins the CLI/server unification: a
// system built from a wire request reports exactly that request back
// from SessionRequest, and the request's options map onto the session
// configuration.
func TestSystemFromRequestRoundTrip(t *testing.T) {
	req := api.JobRequest{
		V:      1,
		Macro:  api.MacroSpec{Builtin: api.MacroSimpleIVConverter},
		Faults: api.FaultSpec{Limit: 5},
		Options: api.RunOptions{
			Workers:          3,
			BoxMode:          api.BoxModeSeed,
			OptTol:           2e-3,
			Retries:          2,
			AttemptTimeoutMS: 1500,
		},
		Compact: api.CompactSpec{Delta: 0.2},
	}
	sys, err := repro.SystemFromRequest(context.Background(), req, repro.WithFastBoxes())
	if err != nil {
		t.Fatal(err)
	}
	got := sys.SessionRequest()
	req.Normalize()
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("SessionRequest round trip:\ngot  %+v\nwant %+v", got, req)
	}
	if name := sys.Golden().Name(); name != api.MacroSimpleIVConverter {
		t.Fatalf("macro = %q", name)
	}
	if n := len(sys.RequestFaults()); n != 5 {
		t.Fatalf("RequestFaults = %d faults, want 5", n)
	}
	cfg := sys.Session().Config()
	if cfg.Workers != 3 || cfg.OptTol != 2e-3 {
		t.Fatalf("session config: workers %d, opt tol %g", cfg.Workers, cfg.OptTol)
	}
	if cfg.Retry == nil || cfg.Retry.MaxAttempts != 2 || cfg.Retry.AttemptTimeout != 1500*time.Millisecond {
		t.Fatalf("retry policy = %+v", cfg.Retry)
	}
}

// TestSessionRequestReconstruction covers the other direction: a system
// built from functional options synthesizes an equivalent wire request,
// so any System can be re-submitted to a job server.
func TestSessionRequestReconstruction(t *testing.T) {
	sys, err := repro.NewSystem(repro.NewSimpleIVConverter(), repro.IVConfigs(),
		repro.WithFastBoxes(), repro.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	req := sys.SessionRequest()
	if req.V != api.Version {
		t.Fatalf("V = %d", req.V)
	}
	if req.Macro.Builtin != api.MacroSimpleIVConverter {
		t.Fatalf("Builtin = %q", req.Macro.Builtin)
	}
	if req.Options.BoxMode != api.BoxModeSeed || req.Options.Workers != 2 {
		t.Fatalf("Options = %+v", req.Options)
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("reconstructed request invalid: %v", err)
	}
}

// TestFromRequestRejectsInvalid pins that FromRequest validates before
// converting.
func TestFromRequestRejectsInvalid(t *testing.T) {
	bad := api.JobRequest{V: 1, Options: api.RunOptions{BoxMode: "psychic"}}
	if _, err := repro.FromRequest(bad); err == nil {
		t.Fatal("invalid request converted")
	}
	if _, err := repro.SystemFromRequest(context.Background(), api.JobRequest{V: 99}); err == nil {
		t.Fatal("future-version request accepted")
	}
}
