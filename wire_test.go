package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// TestExtendedAndDSLJobBytes encodes an extended_configs job and a
// config_dsl job (IV-converter, first fault, seed boxes, one worker) as
// a local job is encoded, and requires the digests these shapes had
// while SINAD (#6) and the descriptions ran simulations of their own,
// outside the analysis memo, the evaluator pool and the retained faulty
// evaluators. Now #3 and #6 share one sine capture, so the extended job
// simulates less and serves more from the memo, with an unchanged sum.
func TestExtendedAndDSLJobBytes(t *testing.T) {
	dsl := []string{
		"macro IV-converter\nconfig 7 custom-dc\nstimulus dc(Iindc)\nparam Iindc A 0 100u seed 20u\nreturn vdc(Vout) accuracy 1m\n",
		"macro IV-converter\nconfig 8 custom-thd\nstimulus sine(Iindc, 5u, freq)\nparam Iindc A 0 40u seed 20u\nparam freq Hz 1k 100k seed 10k\nreturn thd(Vout) accuracy 0.02\n",
		"config 9 s\nstimulus step(base, elev, 10n, 10n)\nparam base A 0 40u seed 5u\nparam elev A 0 40u seed 20u\nreturn sum(Vout) accuracy 7.5n\n",
	}
	for _, tc := range []struct {
		name   string
		macro  api.MacroSpec
		digest string
		sims   int64 // NominalRuns + FaultyRuns + MemoHits
		faulty int64 // FaultyRuns with #6 simulated on its own
	}{
		{"extended_configs", api.MacroSpec{ExtendedConfigs: true},
			"708120a7e90a547fd52db61f10834bf00ed208147d9d073b356268e599b8dd86", 843 + 916 + 18, 916},
		{"config_dsl", api.MacroSpec{ConfigDSL: dsl},
			"302a751c8f138acf6df211c5eb82d790a87d9c3fe462be6d6e2145aec0dc398f", 1285 + 1385 + 44, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			req := api.JobRequest{V: api.Version, Macro: tc.macro, Faults: api.FaultSpec{Limit: 1},
				Options: api.RunOptions{Workers: 1, BoxMode: api.BoxModeSeed}}
			sys, err := repro.SystemFromRequest(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			faults := sys.RequestFaults()
			sols, err := sys.GenerateAllContext(ctx, faults)
			if err != nil {
				t.Fatal(err)
			}
			copt := repro.DefaultCompactOptions()
			cts, err := sys.CompactContext(ctx, sols, copt)
			if err != nil {
				t.Fatal(err)
			}
			cov, err := sys.CoverageContext(ctx, repro.TestsOfCompact(cts), faults)
			if err != nil {
				t.Fatal(err)
			}
			body, err := api.Encode(repro.WireResult(sys, faults, sols, cts, cov, copt.Delta))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("result sha256 %s, want %s", got, tc.digest)
			}
			st := sys.Stats()
			if n := st.NominalRuns + st.FaultyRuns + st.MemoHits; n != tc.sims {
				t.Errorf("nominal+faulty+memo = %d, want %d (%+v)", n, tc.sims, st)
			}
			if tc.faulty > 0 && st.FaultyRuns >= tc.faulty {
				t.Errorf("FaultyRuns = %d, want fewer than %d: #3 and #6 did not share", st.FaultyRuns, tc.faulty)
			}
		})
	}
}
