package repro

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/api"
	"repro/internal/netlist"
	"repro/internal/obs/hist"
	"repro/internal/testcfg"
)

// This file bridges the facade to the versioned wire schema (package
// api): a CLI run and a server job are the same typed object. FromRequest
// turns an api.JobRequest into functional options, SystemFromRequest
// builds the whole system from one, SessionRequest reconstructs the
// request a running system corresponds to, and the Wire... helpers
// serialize internal snapshots into their wire forms.

// FromRequest converts the run options of a wire job request into
// facade options. Macro and fault selection are handled by
// SystemFromRequest; extra run-scoped options (tracer, progress,
// checkpoint) compose on top as usual.
func FromRequest(req api.JobRequest) ([]Option, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var opts []Option
	o := req.Options
	if o.Workers > 0 {
		opts = append(opts, WithWorkers(o.Workers))
	}
	switch o.BoxMode {
	case api.BoxModeSeed:
		opts = append(opts, WithBoxMode(BoxSeed))
	case api.BoxModeMonteCarlo:
		mcs := o.MCSamples
		if mcs <= 0 {
			mcs = 32
		}
		opts = append(opts, WithMonteCarloBox(mcs, o.MCSeed))
	case "", api.BoxModeGrid:
		// BoxGrid is the constructor default.
	}
	if o.BoxGridN > 0 {
		opts = append(opts, WithBoxGridN(o.BoxGridN))
	}
	if o.OptTol > 0 {
		opts = append(opts, WithOptTol(o.OptTol))
	}
	if o.DisableLowRank {
		opts = append(opts, WithLowRankDisabled())
	}
	if o.Retries > 1 || o.AttemptTimeoutMS > 0 {
		p := DefaultRetryPolicy()
		if o.Retries > 1 {
			p.MaxAttempts = o.Retries
		}
		p.AttemptTimeout = time.Duration(o.AttemptTimeoutMS) * time.Millisecond
		opts = append(opts, WithRetryPolicy(p))
	}
	if o.StallTimeoutMS > 0 {
		opts = append(opts, WithStallTimeout(time.Duration(o.StallTimeoutMS)*time.Millisecond))
	}
	return opts, nil
}

// SystemFromRequest builds a complete System from a wire job request:
// the macro (built-in or inline netlist), the test configurations
// (Table 1, the extended set, plus any DSL extras), and the session
// options of FromRequest. extra options (tracer, progress, checkpoint,
// ...) are applied after the request's own. This is the one constructor
// the CLI and the job server share, so a job submitted over HTTP and an
// atpg invocation with the same request produce the same session.
func SystemFromRequest(ctx context.Context, req api.JobRequest, extra ...Option) (*System, error) {
	req.Normalize()
	opts, err := FromRequest(req)
	if err != nil {
		return nil, err
	}
	opts = append(opts, extra...)

	var golden *Circuit
	switch {
	case req.Macro.Netlist != "":
		name := req.Macro.NetlistName
		if name == "" {
			name = "custom"
		}
		golden, err = netlist.Parse(strings.NewReader(req.Macro.Netlist), name)
		if err != nil {
			return nil, fmt.Errorf("repro: request netlist: %w", err)
		}
	case req.Macro.Builtin == api.MacroSimpleIVConverter:
		golden = NewSimpleIVConverter()
	default:
		golden = NewIVConverter()
	}

	configs := IVConfigs()
	if req.Macro.ExtendedConfigs {
		configs = ExtendedIVConfigs()
	}
	for i, dsl := range req.Macro.ConfigDSL {
		c, perr := testcfg.ParseConfigString(dsl)
		if perr != nil {
			return nil, fmt.Errorf("repro: request config DSL #%d: %w", i, perr)
		}
		configs = append(configs, c)
	}

	sys, err := NewSystemContext(ctx, golden, configs, opts...)
	if err != nil {
		return nil, err
	}
	r := req // keep a private copy so later caller mutations don't alias
	sys.request = &r
	return sys, nil
}

// RequestFaults applies the request's fault selection to the system's
// dictionary.
func (s *System) RequestFaults() []Fault {
	faults := s.Faults()
	if s.request != nil && s.request.Faults.Limit > 0 && s.request.Faults.Limit < len(faults) {
		faults = faults[:s.request.Faults.Limit]
	}
	return faults
}

// SessionRequest returns the wire request this system corresponds to.
// A system built by SystemFromRequest returns the original request; one
// built from functional options gets a reconstruction from its session
// configuration (macro name, box mode, optimizer and retry settings),
// so any System can be re-submitted to a job server as the same typed
// object.
func (s *System) SessionRequest() api.JobRequest {
	if s.request != nil {
		return *s.request
	}
	cfg := s.session.Config()
	req := api.JobRequest{V: api.Version}
	switch s.golden.Name() {
	case api.MacroIVConverter, api.MacroSimpleIVConverter:
		req.Macro.Builtin = s.golden.Name()
	default:
		req.Macro.Builtin = s.golden.Name() // custom macros keep their name as a label
	}
	req.Options.Workers = cfg.Workers
	switch cfg.BoxMode {
	case BoxSeed:
		req.Options.BoxMode = api.BoxModeSeed
	case BoxMonteCarlo:
		req.Options.BoxMode = api.BoxModeMonteCarlo
		req.Options.MCSamples = cfg.MCSamples
		req.Options.MCSeed = cfg.MCSeed
	default:
		req.Options.BoxMode = api.BoxModeGrid
	}
	req.Options.BoxGridN = cfg.BoxGridN
	req.Options.OptTol = cfg.OptTol
	req.Options.DisableLowRank = cfg.DisableFastPath
	if cfg.Retry != nil {
		req.Options.Retries = cfg.Retry.MaxAttempts
		req.Options.AttemptTimeoutMS = cfg.Retry.AttemptTimeout.Milliseconds()
	}
	req.Options.StallTimeoutMS = cfg.StallTimeout.Milliseconds()
	return req
}

// WireMetrics converts an engine metrics snapshot into its versioned
// wire form — the shape -stats renders, run_end journal records embed,
// and the server's /metrics endpoint serves.
func WireMetrics(m Metrics) api.MetricsSnapshot {
	out := api.MetricsSnapshot{
		V: api.Version,
		Cache: api.CacheMetrics{
			Hits:      m.Cache.Hits,
			Misses:    m.Cache.Misses,
			Shared:    m.Cache.Shared,
			Evictions: m.Cache.Evictions,
			Entries:   m.Cache.Entries,
		},
		Solver: api.SolverMetrics{
			Stamps:              m.Solver.Stamps,
			Factorizations:      m.Solver.Factorizations,
			FactorReuses:        m.Solver.FactorReuses,
			NewtonIterations:    m.Solver.NewtonIterations,
			Solves:              m.Solver.Solves,
			BaseBuilds:          m.Solver.BaseBuilds,
			BaseHits:            m.Solver.BaseHits,
			RecoveryAttempts:    m.Solver.RecoveryAttempts,
			Recoveries:          m.Solver.Recoveries,
			FaultyFactorAvoided: m.Solver.FaultyFactorAvoided,
		},
		TaskPanics: m.TaskPanics,
	}
	for _, p := range m.Phases {
		pm := api.PhaseMetrics{Name: p.Name, Count: p.Count, WallNS: int64(p.Wall)}
		if p.Latency.Count > 0 {
			h := WireHistogram(p.Latency)
			pm.Latency = &h
		}
		out.Phases = append(out.Phases, pm)
	}
	for _, d := range m.Durations {
		out.Durations = append(out.Durations, api.NamedHistogram{
			Name: d.Name, HistogramSnapshot: WireHistogram(d.Snapshot),
		})
	}
	return out
}

// WireHistogram converts a latency distribution into its wire form,
// precomputing the percentiles so consumers never need quantile logic.
// WireMetrics and the daemon's Prometheus exposition both use it.
func WireHistogram(s hist.Snapshot) api.HistogramSnapshot {
	out := api.HistogramSnapshot{
		Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max,
		P50: s.P50(), P90: s.P90(), P99: s.P99(),
	}
	for _, b := range s.Buckets {
		out.Buckets = append(out.Buckets, api.HistogramBucket{Lo: b.Lower, Hi: b.Upper, Count: b.Count})
	}
	return out
}

// WireProgress converts a live progress snapshot into its wire form.
func WireProgress(s ProgressSnapshot) api.ProgressInfo {
	return api.ProgressInfo{
		Phase:            s.Phase,
		Done:             s.Done,
		Total:            s.Total,
		Percent:          s.Percent(),
		ElapsedMS:        s.Elapsed.Milliseconds(),
		ETAMS:            s.ETA.Milliseconds(),
		Quarantined:      s.Quarantined,
		Retries:          s.Retries,
		Undetermined:     s.Undetermined,
		Resumed:          s.Resumed,
		CheckpointWrites: s.CheckpointWrites,
	}
}

// WireQuarantines converts quarantine records into their wire form
// (stacks are deliberately dropped: they are server-log material, not
// API payload).
func WireQuarantines(recs []QuarantineRecord) []api.QuarantineInfo {
	if len(recs) == 0 {
		return nil
	}
	out := make([]api.QuarantineInfo, len(recs))
	for i, r := range recs {
		out[i] = api.QuarantineInfo{
			FaultID: r.FaultID, Config: r.ConfigID, Phase: r.Phase,
			Reason: r.Reason, Panic: r.Value,
		}
	}
	return out
}

// WireVerdicts tallies generation solutions per terminal verdict.
func WireVerdicts(sols []*Solution) map[api.Verdict]int {
	if len(sols) == 0 {
		return nil
	}
	out := make(map[api.Verdict]int)
	for _, sol := range sols {
		if sol != nil {
			out[api.Verdict(sol.Verdict())]++
		}
	}
	return out
}

// WireResult assembles the deterministic job outcome from a completed
// generate→compact→coverage flow. Everything in the result depends only
// on the request (results are identical for any worker count, and a
// checkpoint-resumed run restores solutions bit for bit), so encoding
// it with api.Encode yields byte-identical files for a CLI run, a
// server job, and a killed-and-resumed server job of the same request.
func WireResult(sys *System, faults []Fault, sols []*Solution, cts []CompactTest, cov CoverageReport, delta float64) api.JobResult {
	res := api.JobResult{
		V:      api.Version,
		Macro:  sys.Golden().Name(),
		Faults: len(faults),
		Delta:  delta,
		Coverage: api.CoverageInfo{
			Detected:   cov.Detected,
			Total:      cov.Total,
			Percent:    cov.Percent(),
			Undetected: append([]string(nil), cov.Undetected...),
		},
	}
	for _, sol := range sols {
		info := api.SolutionInfo{
			FaultID:     sol.Fault.ID(),
			Verdict:     api.Verdict(sol.Verdict()),
			Config:      sol.ConfigID(sys.Session()),
			Params:      append([]float64(nil), sol.Params...),
			Sensitivity: sol.Sensitivity,
			Evals:       sol.Evals,
			ImpactIters: sol.ImpactIters,
			Attempts:    sol.Attempts,
		}
		if sol.ConfigIdx >= 0 {
			info.CriticalImpact = sol.CriticalImpact
		}
		res.Solutions = append(res.Solutions, info)
	}
	for _, ct := range cts {
		res.Tests = append(res.Tests, api.TestInfo{
			Config:     sys.Configs()[ct.ConfigIdx].ID,
			ConfigName: sys.Configs()[ct.ConfigIdx].Name,
			Params:     append([]float64(nil), ct.Params...),
			Covers:     append([]string(nil), ct.Members...),
		})
	}
	return res
}
