package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro"
	"repro/api"
)

// perLayer reduces a layer pass to the per-layer metrics. Counts come
// from the always-on counters every job reports (the session's engine
// metrics in process, the journal's run_end snapshot and events for
// daemon jobs); exclusive times come from the traced half; the kernel
// rows from kernelRows. A metric of a layer the workload does not pass
// through (the server for in-process jobs, shards off a coordinator)
// reads 0.
func (b *bench) perLayer(all []sample, plainW, tracedW window, k kernelTimes) report {
	rep := report{Attempted: len(all), Metrics: make(map[string]metric)}
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{finite(v), unit} }

	var (
		jobs, faults              int
		plainFaults, tracedFaults int
		nominal, faulty           int64
		sol                       api.SolverMetrics
		cache                     api.CacheMetrics
		boxNS, compactNS, coverNS int64
		trans, op                 merged
		resultBytes, evals, iters int
		journalBytes, sse, ckpt   int64
		requeues, busy, exe       int64
		queue, exec, over, submit []float64
		tail                      []float64
	)
	perShape := make(map[string][2]int)
	tl := &timeline{}
	tracedEnd := tracedW.start
	for _, s := range all {
		if s.err != nil {
			rep.Failed++
			fmt.Fprintf(b.o.log, "job (%s) failed: %v\n", s.shape, s.err)
			continue
		}
		jobs++
		faults += s.faults
		nominal += s.nominal
		faulty += s.faulty
		if s.traced {
			tracedFaults += s.faults
			tl.add(s.spans)
			tracedEnd = max(tracedEnd, s.end)
		} else {
			plainFaults += s.faults
		}
		if m := s.metrics; m != nil {
			addSolver(&sol, m.Solver)
			cache.Hits += m.Cache.Hits
			cache.Misses += m.Cache.Misses
			cache.Shared += m.Cache.Shared
			for _, p := range m.Phases {
				switch p.Name {
				case "box-build":
					boxNS += p.WallNS
				case "compact":
					compactNS += p.WallNS
				case "fault-sim":
					coverNS += p.WallNS
				}
			}
			for _, d := range m.Durations {
				switch d.Name {
				case "sim.transient":
					trans.add(d.HistogramSnapshot)
				case "sim.op":
					op.add(d.HistogramSnapshot)
				}
			}
		}
		ei, ok := perShape[s.shape]
		if !ok {
			var res api.JobResult
			if err := json.Unmarshal(s.result, &res); err == nil {
				for _, sol := range res.Solutions {
					ei[0] += sol.Evals
					ei[1] += sol.ImpactIters
				}
			}
			perShape[s.shape] = ei
		}
		evals += ei[0]
		iters += ei[1]
		resultBytes += len(s.result)

		if s.svc.id == "" {
			continue
		}
		j, st := s.journal, s.svc.status
		journalBytes += j.bytes
		sse += int64(s.svc.sse)
		ckpt += j.ckptWrites
		if st.Started != nil && st.Finished != nil {
			queue = append(queue, st.Started.Sub(st.Created).Seconds())
			exec = append(exec, st.Finished.Sub(*st.Started).Seconds())
			over = append(over, seconds(s.end-s.start)-st.Finished.Sub(st.Created).Seconds())
			exe += st.Finished.Sub(*st.Started).Nanoseconds()
		}
		submit = append(submit, float64(s.svc.submit.Microseconds())/1e3)
		if b.w.kind == dist {
			requeues += j.requeues
			busy += j.shardBusy
			tail = append(tail, seconds(j.runEnd-j.lastShardDone))
		}
	}
	rep.Correct = jobs > 0 && rep.Failed == 0

	f := float64(faults)
	n := float64(jobs)
	put("mna.factorizations_per_fault", "count", float64(sol.Factorizations)/f)
	put("mna.factor_reuse_ratio", "ratio", ratio(sol.FactorReuses, sol.Factorizations+sol.FactorReuses))
	put("device.stamps_per_fault", "count", float64(sol.Stamps)/f)
	put("sim.base_hit_ratio", "ratio", ratio(sol.BaseHits, sol.BaseHits+sol.BaseBuilds))
	put("sim.newton_iters_per_fault", "count", float64(sol.NewtonIterations)/f)
	put("sim.transient.count_per_fault", "count", float64(trans.count)/f)
	put("sim.transient.busy_s_per_fault", "s", float64(trans.sum)/1e9/f)
	put("sim.transient.p50_ms", "ms", trans.quantile(0.5)/1e6)
	put("sim.transient.p99_ms", "ms", trans.quantile(0.99)/1e6)
	put("sim.op.count_per_fault", "count", float64(op.count)/f)
	put("sim.op.busy_s_per_fault", "s", float64(op.sum)/1e9/f)
	put("sim.op.p50_us", "us", op.quantile(0.5)/1e3)
	put("core.nominal_sims_per_fault", "count", float64(nominal)/f)
	put("core.faulty_sims_per_fault", "count", float64(faulty)/f)
	put("core.evals_per_fault", "count", float64(evals)/f)
	put("core.impact_iters_per_fault", "count", float64(iters)/f)
	put("core.faulty_factor_avoided_per_fault", "count", float64(sol.FaultyFactorAvoided)/f)
	put("core.box_build_s", "s", float64(boxNS)/1e9/n)
	put("core.compact_ms", "ms", float64(compactNS)/1e6/n)
	put("core.coverage_ms", "ms", float64(coverNS)/1e6/n)
	put("engine.cache_hit_ratio", "ratio", ratio(uint64(cache.Hits+cache.Shared), uint64(cache.Hits+cache.Shared+cache.Misses)))
	put("api.result_kb", "KiB", float64(resultBytes)/1024/n)
	put("obs.journal_kb_per_fault", "KiB", float64(journalBytes)/1024/f)
	put("obs.sse_events_per_fault", "count", float64(sse)/f)
	put("ckpt.writes_per_job", "count", float64(ckpt)/n)
	put("server.queue_wait_s", "s", median(queue))
	put("server.exec_s", "s", median(exec))
	put("server.overhead_s", "s", median(over))
	put("server.submit_ms", "ms", median(submit))
	put("dist.requeues_per_job", "count", float64(requeues)/n)
	put("dist.worker_busy_share", "ratio", float64(busy)/float64(exe*int64(max(b.w.shardWorkers, 1))))
	put("dist.tail_s", "s", median(tail))

	wall := tracedEnd - tracedW.start
	self := attribute(tl.spans, tracedW.start, tracedEnd)
	for l, name := range layers {
		key := "trace." + name + ".self_share"
		if l == unattributed {
			key = "trace.unattributed_share"
		}
		put(key, "ratio", self[l]/float64(wall))
	}
	// CPU time per fault at reference speed, so that a host slowing down
	// between the halves does not read as tracing cost.
	cpuPerFault := func(w window, faults int) float64 {
		return b.probe.scale(w.start, w.end) * w.cpu.Seconds() / float64(faults)
	}
	put("obs.trace_overhead", "ratio", cpuPerFault(tracedW, tracedFaults)/cpuPerFault(plainW, plainFaults)-1)

	for _, c := range repro.IVConfigs() {
		put("kernel.testcfg_run."+c.Name+"_ns", "ns", k.ns[c.Name])
	}
	put("testcfg.non_sim_share", "ratio", k.nonSimShare)
	return rep
}

func addSolver(dst *api.SolverMetrics, s api.SolverMetrics) {
	dst.Stamps += s.Stamps
	dst.Factorizations += s.Factorizations
	dst.FactorReuses += s.FactorReuses
	dst.NewtonIterations += s.NewtonIterations
	dst.BaseBuilds += s.BaseBuilds
	dst.BaseHits += s.BaseHits
	dst.FaultyFactorAvoided += s.FaultyFactorAvoided
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// merged is one latency histogram summed over job snapshots.
type merged struct {
	count   uint64
	sum     int64
	buckets map[int64]api.HistogramBucket
}

func (m *merged) add(h api.HistogramSnapshot) {
	if m.buckets == nil {
		m.buckets = make(map[int64]api.HistogramBucket)
	}
	m.count += h.Count
	m.sum += h.Sum
	for _, b := range h.Buckets {
		acc := m.buckets[b.Lo]
		acc.Lo, acc.Hi, acc.Count = b.Lo, b.Hi, acc.Count+b.Count
		m.buckets[b.Lo] = acc
	}
}

// quantile returns the midpoint of the bucket holding the q-quantile
// (the histogram's own resolution, 1/32 relative).
func (m *merged) quantile(q float64) float64 {
	if m.count == 0 {
		return 0
	}
	los := make([]int64, 0, len(m.buckets))
	for lo := range m.buckets {
		los = append(los, lo)
	}
	sort.Slice(los, func(i, j int) bool { return los[i] < los[j] })
	target := q * float64(m.count)
	var cum uint64
	for _, lo := range los {
		b := m.buckets[lo]
		cum += b.Count
		if float64(cum) >= target {
			return float64(b.Lo+b.Hi) / 2
		}
	}
	b := m.buckets[los[len(los)-1]]
	return float64(b.Lo+b.Hi) / 2
}

// kernelTimes are the kernel rows of a layer pass.
type kernelTimes struct {
	// ns is the median Config.Run time per configuration name.
	ns map[string]float64
	// nonSimShare is the share of Config.Run time outside the
	// simulation kernel's analyses: circuit cloning, stimulus set-up and
	// testcfg/dsp post-processing.
	nonSimShare float64
}

// kernelRows times Config.Run at the seed parameters for each Table-1
// configuration on the IV-converter, outside any generation. The
// simulation kernel reports each analysis to the trace hook a traced
// System installs, so the union of those sim.* spans inside a call is
// the call's simulation time.
func kernelRows(ctx context.Context, smoke bool, clock func() int64) (kernelTimes, error) {
	k := kernelTimes{ns: make(map[string]float64)}
	sink := newSpanSink(clock)
	if _, err := repro.NewSystemContext(ctx, repro.NewIVConverter(), repro.IVConfigs()[:1],
		repro.WithFastBoxes(), repro.WithWorkers(1), repro.WithTracer(repro.NewTracer(sink))); err != nil {
		return k, err
	}
	reps := 15
	if smoke {
		reps = 2
	}
	golden := repro.NewIVConverter()
	var call, simNS float64
	for _, c := range repro.IVConfigs() {
		seeds := c.Seeds()
		if _, err := c.Run(golden, seeds); err != nil {
			return k, err
		}
		var ds []float64
		for r := 0; r < reps; r++ {
			n0 := sink.len()
			t0 := clock()
			if _, err := c.Run(golden, seeds); err != nil {
				return k, err
			}
			t1 := clock()
			ds = append(ds, float64(t1-t0))
			call += float64(t1 - t0)
			simNS += covered(sink.since(n0), t0, t1)
		}
		k.ns[c.Name] = median(ds)
	}
	k.nonSimShare = 1 - simNS/call
	return k, nil
}

// covered is the length of the union of spans clipped to [from, to].
func covered(spans []tspan, from, to int64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, reach int64 = 0, from
	for _, s := range spans {
		lo, hi := max(s.start, reach), min(s.end, to)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return float64(total)
}
