// Command atpg runs the complete flow of the paper on the IV-converter
// macro (or a custom netlist): enumerate the structural fault
// dictionary, generate the optimal test per fault, compact the test set
// with the δ loss budget, and fault-simulate the result.
//
// Ctrl-C cancels the run promptly (the evaluation engine propagates the
// context through generation, compaction and coverage), and -timeout
// bounds the whole run with a context deadline; on either, a -journal
// file is still flushed as a truncated-but-valid record ending in
// run_canceled.
//
// The resilience flags map onto the fault-tolerant runtime (DESIGN.md
// §10): -retries arms the retry policy (perturbed optimizer restarts
// plus the simulation recovery ladder), -checkpoint/-resume persist and
// restore per-fault results across kills, and -strict turns degraded
// verdicts (quarantined or undetermined faults) into a non-zero exit.
//
// Usage:
//
//	atpg [-netlist file] [-delta d] [-workers n] [-fast] [-faults n]
//	     [-retries n] [-attempt-timeout d] [-checkpoint ckpt.json]
//	     [-resume] [-strict] [-timeout d]
//	     [-journal run.jsonl] [-trace-sample n] [-listen :6060]
//	     [-result-json out.json] [-stats] [-v]
//
// The flags assemble an api.JobRequest (the same typed object a client
// POSTs to the atpgd job server) and -result-json writes the canonical
// api.JobResult encoding, byte-identical to the server's result
// endpoint for the same request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro"
	"repro/api"
	"repro/internal/obs/export"
	"repro/internal/report"
)

// options collects the parsed flags so run stays testable.
type options struct {
	netlistPath    string
	configFile     string
	delta          float64
	workers        int
	fast           bool
	limit          int
	stats          bool
	verbose        bool
	journalPath    string
	traceSample    int
	listenAddr     string
	retries        int
	noLowRank      bool
	attemptTimeout time.Duration
	checkpointPath string
	resume         bool
	strict         bool
	timeout        time.Duration
	resultJSON     string
}

// request assembles the wire job request equivalent to the flags: the
// exact object a client would POST to atpgd to get this run. Building
// the system from it (SystemFromRequest) is what makes the CLI run and
// the server job the same typed object — and their -result-json /
// result-endpoint outputs byte-identical.
func (o options) request() (api.JobRequest, error) {
	req := api.JobRequest{V: api.Version}
	if o.netlistPath != "" {
		data, err := os.ReadFile(o.netlistPath)
		if err != nil {
			return req, err
		}
		req.Macro.Netlist = string(data)
		req.Macro.NetlistName = o.netlistPath
	}
	if o.configFile != "" {
		data, err := os.ReadFile(o.configFile)
		if err != nil {
			return req, err
		}
		req.Macro.ConfigDSL = []string{string(data)}
	}
	req.Faults.Limit = o.limit
	req.Options.Workers = o.workers
	if o.fast {
		req.Options.BoxMode = api.BoxModeSeed
	}
	req.Options.Retries = o.retries
	req.Options.DisableLowRank = o.noLowRank
	req.Options.AttemptTimeoutMS = o.attemptTimeout.Milliseconds()
	req.Compact.Delta = o.delta
	req.Normalize()
	return req, req.Validate()
}

func main() {
	var o options
	flag.StringVar(&o.netlistPath, "netlist", "", "SPICE-like netlist of a custom macro (default: built-in IV-converter)")
	flag.StringVar(&o.configFile, "config-file", "", "additional test configuration description file (Fig. 1 DSL)")
	flag.Float64Var(&o.delta, "delta", 0.1, "compaction loss budget δ")
	flag.IntVar(&o.workers, "workers", 0, "generation parallelism (0: GOMAXPROCS)")
	flag.BoolVar(&o.fast, "fast", false, "seed-calibrated tolerance boxes (faster, coarser)")
	flag.IntVar(&o.limit, "faults", 0, "limit the fault list to the first n faults (0: all)")
	flag.BoolVar(&o.stats, "stats", false, "print per-phase engine timings and cache statistics")
	flag.BoolVar(&o.verbose, "v", false, "print per-fault detail")
	flag.StringVar(&o.journalPath, "journal", "", "write a JSONL run journal (spans, events, fault verdicts) to this file")
	flag.IntVar(&o.traceSample, "trace-sample", 1, "journal one in every n spans (1: all; events are never sampled)")
	flag.StringVar(&o.listenAddr, "listen", "", "serve live /metrics, /progress and pprof on this address (e.g. :6060)")
	flag.IntVar(&o.retries, "retries", 0, "optimizer attempt budget per fault×config pair; > 1 arms the retry policy and recovery ladder (0: fail fast like the plain flow)")
	flag.BoolVar(&o.noLowRank, "no-lowrank", false, "turn off the retained fault evaluators: every faulty evaluation rebuilds its circuit (A/B benchmarking)")
	flag.DurationVar(&o.attemptTimeout, "attempt-timeout", 0, "per-optimizer-attempt deadline under -retries (0: none)")
	flag.StringVar(&o.checkpointPath, "checkpoint", "", "crash-safe checkpoint file for per-fault generation results")
	flag.BoolVar(&o.resume, "resume", false, "skip faults already completed in the -checkpoint file")
	flag.BoolVar(&o.strict, "strict", false, "exit non-zero when any fault ends quarantined or undetermined")
	flag.DurationVar(&o.timeout, "timeout", 0, "overall run deadline; on expiry the journal is sealed like on Ctrl-C (0: none)")
	flag.StringVar(&o.resultJSON, "result-json", "", "write the run's outcome as a canonical api.JobResult JSON file (byte-identical to the atpgd result endpoint for the same request)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	if err := run(ctx, o); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "atpg: timed out after %v\n", o.timeout)
			os.Exit(124)
		}
		if errors.Is(err, repro.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "atpg: canceled")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(1)
	}
}

// run executes the full flow. It returns instead of exiting so the
// journal is sealed (run_end / run_canceled plus flush) on every path.
// The session itself is built from the wire request the flags assemble
// (SystemFromRequest); only run-scoped plumbing — journal, progress,
// checkpoint — rides on top as extra options.
func run(ctx context.Context, o options) (err error) {
	req, err := o.request()
	if err != nil {
		return err
	}
	var opts []repro.Option
	if o.checkpointPath != "" {
		opts = append(opts, repro.WithCheckpoint(o.checkpointPath, 0, o.resume))
	} else if o.resume {
		return errors.New("-resume requires -checkpoint")
	}

	var tracer *repro.Tracer
	var sys *repro.System
	if o.journalPath != "" {
		jf, ferr := os.Create(o.journalPath)
		if ferr != nil {
			return ferr
		}
		journal := repro.NewJournal(jf)
		tracer = repro.NewTracerWith(journal,
			[]repro.TraceAttr{
				repro.TraceString("cmd", "atpg"),
				repro.TraceF64("delta", o.delta),
			},
			repro.TraceSampleEvery(o.traceSample))
		opts = append(opts, repro.WithTracer(tracer))
		defer func() {
			journal.Close()
			if cerr := jf.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	prog := repro.NewProgress()
	opts = append(opts, repro.WithProgress(prog))
	// Seal the journal on every exit: run_canceled when the error wraps a
	// context cancellation, run_end (with the final metrics snapshot)
	// otherwise. Runs before the journal-closing defer above.
	defer func() {
		if sys != nil {
			tracer.Finish(err, repro.TraceAny("metrics", repro.WireMetrics(sys.Metrics())))
		} else {
			tracer.Finish(err)
		}
	}()

	sys, err = repro.SystemFromRequest(ctx, req, opts...)
	if err != nil {
		return err
	}
	if o.configFile != "" {
		extra := sys.Configs()[len(sys.Configs())-1]
		fmt.Printf("loaded configuration #%d (%s) from %s\n", extra.ID, extra.Name, o.configFile)
	}

	if o.listenAddr != "" {
		srv, serr := export.Serve(export.Options{
			Addr:     o.listenAddr,
			Metrics:  func() any { return sys.Metrics() },
			Progress: prog.Snapshot,
			// Prometheus scrapes (Accept: text/plain) get the engine series
			// in text exposition format; JSON stays the default.
			Prom: func(w io.Writer) {
				p := &export.PromText{}
				export.PromFromMetrics(p, repro.WireMetrics(sys.Metrics()))
				_, _ = p.WriteTo(w)
			},
		})
		if serr != nil {
			return serr
		}
		defer srv.Close()
		fmt.Printf("serving http://%s/ (/metrics, /progress, /debug/pprof/)\n", srv.Addr())
	}

	faults := sys.RequestFaults()
	fmt.Printf("macro %q: %d devices, %d faults, %d test configurations\n",
		sys.Golden().Name(), len(sys.Golden().Devices()), len(faults), len(sys.Configs()))

	start := time.Now()
	sols, err := sys.GenerateAllContext(ctx, faults)
	if err != nil {
		return err
	}
	fmt.Printf("generation: %v\n\n", time.Since(start).Round(time.Millisecond))

	if o.verbose {
		t := report.NewTable("fault", "verdict", "config", "params", "S_f", "critical impact")
		for _, sol := range sols {
			if sol.ConfigIdx < 0 {
				// Unresolved (quarantined/undetermined): no test exists.
				t.AddRow(sol.Fault.ID(), string(sol.Verdict()), "-", "-", "-", "-")
				continue
			}
			c := sys.Configs()[sol.ConfigIdx]
			t.AddRow(sol.Fault.ID(), string(sol.Verdict()), c.Name, fmt.Sprintf("%v", sol.Params),
				sol.Sensitivity, report.Engineering(sol.CriticalImpact))
		}
		_, _ = t.WriteTo(os.Stdout)
		fmt.Println()
	}

	d := sys.Tabulate(sols)
	fmt.Println("best-test distribution:")
	for _, id := range d.ConfigIDs() {
		total := 0
		for _, n := range d.Counts[id] {
			total += n
		}
		fmt.Printf("  config #%d: %d faults\n", id, total)
	}
	unresolved := 0
	for _, n := range d.Unresolved {
		unresolved += n
	}
	if unresolved > 0 {
		fmt.Printf("  unresolved: %d faults (undetermined or quarantined)\n", unresolved)
	}

	if q := sys.Quarantined(); len(q) > 0 {
		fmt.Printf("\nquarantined tasks (%d): the run completed without them\n", len(q))
		qt := report.NewTable("fault", "config", "phase", "panic")
		for _, rec := range q {
			cfg := "-"
			if rec.ConfigID >= 0 {
				cfg = fmt.Sprintf("#%d", rec.ConfigID)
			}
			qt.AddRow(rec.FaultID, cfg, rec.Phase, rec.Value)
		}
		_, _ = qt.WriteTo(os.Stdout)
	}

	copt := repro.DefaultCompactOptions()
	copt.Delta = o.delta
	cts, err := sys.CompactContext(ctx, sols, copt)
	if err != nil {
		return err
	}
	cov, err := sys.CoverageContext(ctx, repro.TestsOfCompact(cts), faults)
	if err != nil {
		return err
	}
	fmt.Printf("\ncompacted test set (δ=%.2g): %d tests for %d faults\n", o.delta, len(cts), len(faults))
	t := report.NewTable("test", "config", "params", "covers")
	for i, ct := range cts {
		t.AddRow(i+1, sys.Configs()[ct.ConfigIdx].Name, fmt.Sprintf("%v", ct.Params), len(ct.Members))
	}
	_, _ = t.WriteTo(os.Stdout)
	fmt.Printf("\nfault coverage of the compacted set: %.1f %% (%d/%d)\n",
		cov.Percent(), cov.Detected, cov.Total)
	if wcov, werr := repro.WeightedCoverage(repro.HeuristicIFAWeights(faults), cov); werr == nil {
		fmt.Printf("IFA-weighted coverage: %.1f %%\n", wcov)
	}
	if len(cov.Undetected) > 0 {
		fmt.Println("undetected faults:")
		for _, id := range cov.Undetected {
			fmt.Printf("  %s\n", id)
		}
	}

	// ATE schedule: order the compacted tests by marginal yield per
	// second and estimate the production test time.
	sched, _, err := sys.ScheduleContext(ctx, repro.TestsOfCompact(cts), faults)
	if err != nil {
		return err
	}
	fmt.Printf("\nATE schedule (total application time %v):\n",
		sys.SetTime(repro.TestsOfCompact(cts)).Round(time.Microsecond))
	st := report.NewTable("order", "config", "params", "new detections", "time")
	for i, e := range sched {
		st.AddRow(i+1, sys.Configs()[e.ConfigIdx].Name, fmt.Sprintf("%v", e.Params),
			e.NewDetections, e.Time.Round(time.Microsecond))
	}
	_, _ = st.WriteTo(os.Stdout)

	ss := sys.Stats()
	fmt.Printf("\nsimulation effort: %d nominal + %d faulty runs (%d cache hits, %d served by the analysis memo, %d non-convergent faulty circuits)\n",
		ss.NominalRuns, ss.FaultyRuns, ss.CacheHits, ss.MemoHits, ss.FaultyFailures)
	if ss.Retries > 0 || ss.Undetermined > 0 || ss.Quarantined > 0 {
		fmt.Printf("resilience: %d optimizer retries, %d undetermined faults, %d quarantined tasks\n",
			ss.Retries, ss.Undetermined, ss.Quarantined)
	}

	if o.resultJSON != "" {
		out, rerr := api.Encode(repro.WireResult(sys, faults, sols, cts, cov, copt.Delta))
		if rerr != nil {
			return rerr
		}
		if rerr := os.WriteFile(o.resultJSON, out, 0o644); rerr != nil {
			return rerr
		}
	}
	if o.stats {
		fmt.Println("\nengine metrics:")
		if err := report.WriteMetrics(os.Stdout, repro.WireMetrics(sys.Metrics())); err != nil {
			return err
		}
	}
	if o.strict && (ss.Undetermined > 0 || ss.Quarantined > 0) {
		return fmt.Errorf("strict: %d undetermined and %d quarantined faults", ss.Undetermined, ss.Quarantined)
	}
	return nil
}
