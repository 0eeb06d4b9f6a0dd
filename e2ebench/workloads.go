package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/api"
)

// kind is how a workload's jobs reach the generator.
type kind int

const (
	// local jobs call the repro facade in process: build a System, then
	// generate, compact, fault-simulate and encode.
	local kind = iota
	// daemon jobs go through an in-process atpgd over HTTP: submit,
	// follow the SSE stream, read the status, fetch the result.
	daemon
	// dist jobs are daemon jobs against a coordinator that shards them
	// across in-process shard workers.
	dist
)

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	kind kind
	// full and smoke list the job shapes the clients draw from.
	full, smoke []shape
	// clients is the number of closed-loop clients of the gated pass
	// (the layer pass always runs one).
	clients int
	// slots is the daemon's number of concurrently executing jobs (0:
	// the daemon default, one).
	slots int
	// shardWorkers and shardSize configure a dist coordinator.
	shardWorkers, shardSize int
}

// shape is everything that determines one job's result bytes; its name
// keys the pin.
type shape struct {
	name string
	req  api.JobRequest
	// cfgs, for local jobs, keeps only the first cfgs test
	// configurations (0: all the request's).
	cfgs int
	// ids, for local jobs, restricts generation to these dictionary
	// faults (nil: the request's fault selection).
	ids []string
}

// request builds a normalized job request.
func request(macro string, limit int, box string, workers int, delta float64) api.JobRequest {
	r := api.JobRequest{
		V:       api.Version,
		Macro:   api.MacroSpec{Builtin: macro},
		Faults:  api.FaultSpec{Limit: limit},
		Options: api.RunOptions{BoxMode: box, Workers: workers},
		Compact: api.CompactSpec{Delta: delta},
	}
	r.Normalize()
	return r
}

// workloads is the benchmark's fixed suite. Every job runs one engine
// worker and the whole benchmark runs on one CPU (run.sh), so a run
// measures the program, not how two busy threads share a contended
// host. Each workload stresses a different set of layers (README.md has
// the full rationale):
//
//   - paper_slice: the paper-scale configuration set (all five Table-1
//     configurations, grid tolerance boxes) on a three-fault slice. Its
//     CPU is transient simulation; its setup is the grid box build.
//   - dc55: all 55 faults under the two DC configurations only. No
//     transients: Newton operating points, the retained-evaluator fast
//     path, the nominal cache and the generation core's bookkeeping.
//   - atpgd_mix: two closed-loop clients against one job slot of an
//     in-process atpgd, the service path (queue, journal tee, SSE,
//     checkpoints, result persistence) on top of real jobs.
//   - dist_2w: two clients against a coordinator with two job slots
//     and two shard workers: the shard protocol, journal stitching and
//     merge.
var workloads = []workload{
	{
		name: "paper_slice",
		kind: local,
		full: []shape{{
			name: "paper_slice",
			req:  request(api.MacroIVConverter, 0, api.BoxModeGrid, 1, 0.1),
			ids:  []string{"bridge:0-Vdd", "bridge:0-Vref", "pinhole:M5"},
		}},
		smoke: []shape{{
			name: "smoke_slice",
			req:  request(api.MacroSimpleIVConverter, 0, api.BoxModeSeed, 1, 0.1),
			ids:  []string{"bridge:0-Vdd"},
		}},
		clients: 1,
	},
	{
		name: "dc55",
		kind: local,
		full: []shape{{
			name: "dc55",
			req:  request(api.MacroIVConverter, 0, api.BoxModeSeed, 1, 0.1),
			cfgs: 2,
		}},
		smoke: []shape{{
			name: "smoke_dc",
			req:  request(api.MacroSimpleIVConverter, 8, api.BoxModeSeed, 1, 0.1),
			cfgs: 2,
		}},
		clients: 1,
	},
	{
		name: "atpgd_mix",
		kind: daemon,
		// Three compaction budgets over the same generation work: the
		// jobs differ in their result bytes, not in their cost, so the
		// latency median does not depend on which mix a seed draws.
		full: []shape{
			{name: "atpgd_d05", req: request(api.MacroSimpleIVConverter, 2, api.BoxModeSeed, 1, 0.05)},
			{name: "atpgd_d10", req: request(api.MacroSimpleIVConverter, 2, api.BoxModeSeed, 1, 0.1)},
			{name: "atpgd_d20", req: request(api.MacroSimpleIVConverter, 2, api.BoxModeSeed, 1, 0.2)},
		},
		smoke: []shape{
			{name: "smoke_svc", req: request(api.MacroSimpleIVConverter, 1, api.BoxModeSeed, 1, 0.1)},
		},
		clients: 2,
	},
	{
		name: "dist_2w",
		kind: dist,
		full: []shape{
			{name: "dist_2w", req: request(api.MacroSimpleIVConverter, 2, api.BoxModeSeed, 1, 0.1)},
		},
		smoke: []shape{
			{name: "smoke_dist", req: request(api.MacroSimpleIVConverter, 1, api.BoxModeSeed, 1, 0.1)},
		},
		clients:      2,
		slots:        2,
		shardWorkers: 2,
		shardSize:    1,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shapes returns the job shapes of the run's size.
func (w workload) shapes(smoke bool) []shape {
	if smoke {
		return w.smoke
	}
	return w.full
}

// loadPins decodes the embedded pin file.
func loadPins() (map[string]string, error) {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// digest is the pin form of result bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verify checks result bytes against the shape's pin.
func verify(pins map[string]string, name string, body []byte) error {
	want, ok := pins[name]
	if !ok {
		return fmt.Errorf("no pin for shape %q (run with -pin)", name)
	}
	if got := digest(body); got != want {
		return fmt.Errorf("shape %q: result sha256 %s, pinned %s", name, got, want)
	}
	return nil
}

// localRun is one in-process job's outcome.
type localRun struct {
	body   []byte
	faults int
	setup  time.Duration
	stats  repro.Stats
	sys    *repro.System
}

// runLocal executes one job through the facade: build the system (the
// timed setup), generate over the shape's faults in an order drawn from
// rng, restore dictionary order, compact, fault-simulate and encode.
// Generation results do not depend on the fault order, so the bytes
// match the shape's single pin whatever the seed. A non-nil tr (the
// layer pass) records a bench.* span around each facade call; a nil
// Tracer records nothing.
func runLocal(ctx context.Context, sh shape, rng *rand.Rand, tr *repro.Tracer) (localRun, error) {
	var out localRun
	opts, err := repro.FromRequest(sh.req)
	if err != nil {
		return out, err
	}
	if tr != nil {
		opts = append(opts, repro.WithTracer(tr))
	}

	sctx, sp := tr.Start(ctx, "bench.setup")
	t0 := time.Now()
	var sys *repro.System
	if sh.cfgs > 0 {
		golden := repro.NewIVConverter()
		if sh.req.Macro.Builtin == api.MacroSimpleIVConverter {
			golden = repro.NewSimpleIVConverter()
		}
		sys, err = repro.NewSystemContext(sctx, golden, repro.IVConfigs()[:sh.cfgs], opts...)
	} else {
		sys, err = repro.SystemFromRequest(sctx, sh.req, opts...)
	}
	out.setup = time.Since(t0)
	sp.End()
	if err != nil {
		return out, err
	}
	out.sys = sys

	faults := sys.Faults()
	if l := sh.req.Faults.Limit; l > 0 && l < len(faults) {
		faults = faults[:l]
	}
	if sh.ids != nil {
		if faults, err = repro.FaultsByID(faults, sh.ids); err != nil {
			return out, err
		}
	}
	out.faults = len(faults)
	order := append([]repro.Fault(nil), faults...)
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	gctx, sp := tr.Start(ctx, "bench.generate")
	sols, err := sys.GenerateAllContext(gctx, order)
	sp.End()
	if err != nil {
		return out, err
	}
	rank := make(map[string]int, len(faults))
	for i, f := range faults {
		rank[f.ID()] = i
	}
	sort.Slice(sols, func(a, b int) bool { return rank[sols[a].Fault.ID()] < rank[sols[b].Fault.ID()] })

	copt := repro.DefaultCompactOptions()
	if sh.req.Compact.Delta > 0 {
		copt.Delta = sh.req.Compact.Delta
	}
	cctx, sp := tr.Start(ctx, "bench.compact")
	cts, err := sys.CompactContext(cctx, sols, copt)
	sp.End()
	if err != nil {
		return out, err
	}
	vctx, sp := tr.Start(ctx, "bench.coverage")
	cov, err := sys.CoverageContext(vctx, repro.TestsOfCompact(cts), faults)
	sp.End()
	if err != nil {
		return out, err
	}
	_, sp = tr.Start(ctx, "bench.encode")
	out.body, err = api.Encode(repro.WireResult(sys, faults, sols, cts, cov, copt.Delta))
	sp.End()
	out.stats = sys.Stats()
	return out, err
}
