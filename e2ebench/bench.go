package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/api"
)

// bench is one workload pass.
type bench struct {
	o     options
	w     workload
	pins  map[string]string
	dir   string
	epoch time.Time
	probe *probe
}

// now is the benchmark clock: nanoseconds since the pass began.
func (b *bench) now() int64 { return int64(time.Since(b.epoch)) }

// sample is one finished or failed job.
type sample struct {
	shape      string
	faults     int
	start, end int64
	err        error
	traced     bool
	// setup is the job's System construction (for daemon jobs, inside
	// the daemon, read back from its journal), begun at setupAt on the
	// benchmark clock.
	setup   time.Duration
	setupAt int64
	// nominal and faulty count the job's simulations, the paper's cost
	// metric.
	nominal, faulty int64

	// Layer pass only: the job's engine metrics, result bytes and, when
	// traced, spans.
	metrics *api.MetricsSnapshot
	result  []byte
	spans   []tspan

	// Daemon jobs only.
	svc     serviceJob
	journal journalInfo
}

// picker deals one closed-loop client its jobs: each round is a fresh
// seed-drawn permutation of the workload's shapes. Its generator also
// draws local jobs' fault orders.
type picker struct {
	rng    *rand.Rand
	shapes []shape
	queue  []shape
}

func (b *bench) pickers(shapes []shape, clients int) []*picker {
	ps := make([]*picker, clients)
	for c := range ps {
		ps[c] = &picker{rng: rand.New(rand.NewSource(b.o.seed*1_000_003 + int64(c))), shapes: shapes}
	}
	return ps
}

func (p *picker) next() shape {
	if len(p.queue) == 0 {
		p.queue = append(p.queue, p.shapes...)
		p.rng.Shuffle(len(p.queue), func(i, j int) { p.queue[i], p.queue[j] = p.queue[j], p.queue[i] })
	}
	sh := p.queue[0]
	p.queue = p.queue[1:]
	return sh
}

// localJob runs one in-process job and verifies it. A traced job gets
// its own tracer, as a CLI run would, with bench.* spans around each
// facade call.
func (b *bench) localJob(ctx context.Context, p *picker, traced bool) sample {
	sh := p.next()
	s := sample{shape: sh.name, start: b.now(), traced: traced}
	var tr *repro.Tracer // nil: untraced
	sink := newSpanSink(b.now)
	if traced {
		tr = repro.NewTracer(sink)
	}
	ctx, root := tr.Start(ctx, "bench.job")
	run, err := runLocal(ctx, sh, p.rng, tr)
	if err == nil {
		_, sp := tr.Start(ctx, "bench.verify")
		err = verify(b.pins, sh.name, run.body)
		sp.End()
	}
	root.End()
	s.end = b.now()
	s.err, s.setup, s.setupAt, s.faults = err, run.setup, s.start, run.faults
	s.nominal, s.faulty = run.stats.NominalRuns, run.stats.FaultyRuns
	if b.o.trace && run.sys != nil {
		m := repro.WireMetrics(run.sys.Metrics())
		s.metrics, s.result = &m, run.body
	}
	if traced {
		s.spans = sink.since(0)
	}
	return s
}

// serviceJob runs one job against the daemon and verifies its bytes.
func (b *bench) serviceJob(ctx context.Context, svc *service, p *picker, traced bool) sample {
	sh := p.next()
	s := sample{shape: sh.name, faults: sh.req.Faults.Limit, start: b.now(), traced: traced}
	j, err := svc.job(ctx, sh.req, b.now)
	if err == nil {
		v := tspan{start: b.now(), parent: 0, layer: layerBench}
		err = verify(b.pins, sh.name, j.body)
		v.end = b.now()
		j.spans = append(j.spans, v)
	}
	s.end = b.now()
	j.spans[0].end = s.end
	s.svc, s.err = j, err
	if b.o.trace {
		s.result = j.body
	}
	return s
}

// warmUp runs one unmeasured job: heap growth, first-touch page faults
// and the daemon's first connections are process start-up, not per-job
// cost. Smoke runs skip it to stay fast.
func (b *bench) warmUp(ctx context.Context, job jobFunc, p *picker) error {
	if b.o.smoke {
		return nil
	}
	if s := job(ctx, p, false); s.err != nil {
		return fmt.Errorf("warm-up job: %w", s.err)
	}
	return nil
}

// window is one measured stretch of a pass.
type window struct {
	start, end int64
	// cpu is the process's user+system time over the window; alloc the
	// bytes it allocated on the heap.
	cpu   time.Duration
	alloc uint64
}

// measure runs every picker as a closed-loop client until d has passed;
// a job started inside the window runs to completion. A client stops at
// its first failed job.
func (b *bench) measure(ctx context.Context, pickers []*picker, d time.Duration, job jobFunc, traced bool) (window, []sample) {
	cpu0, alloc0 := cpuTime(), heapAllocs()
	w := window{start: b.now()}
	until := time.Now().Add(d)
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	for _, p := range pickers {
		wg.Add(1)
		go func(p *picker) {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				s := job(ctx, p, traced)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
				if s.err != nil {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	w.end = b.now()
	w.cpu, w.alloc = cpuTime()-cpu0, heapAllocs()-alloc0
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return w, out
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs returns the bytes the process has allocated on the heap
// since it started. Allocation volume is a property of the code, not of
// the collector's pacing, so unlike the resident set it repeats run to
// run.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// readJournals reads back each finished daemon job's journal: the
// simulation counts behind sims_per_fault and, in the layer pass, the
// engine metrics and spans.
func (b *bench) readJournals(svc *service, samples []sample) error {
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		paths, err := svc.srv.Store().Job(s.svc.id)
		if err != nil {
			return err
		}
		info, err := readJournal(paths.Journal, s.traced)
		if err != nil {
			return err
		}
		s.journal, s.metrics = info, info.metrics
		epoch := s.svc.status.Started.Sub(b.epoch).Nanoseconds()
		s.setup, s.setupAt = time.Duration(info.ready), epoch
		s.nominal, s.faulty = info.misses, info.hits+info.misses
		if s.traced {
			s.spans = serviceSpans(s.svc.spans, info, epoch)
		}
	}
	return nil
}

// gatedPass measures the end-to-end metrics with tracing off.
func (b *bench) gatedPass(ctx context.Context) (report, error) {
	shapes := b.w.shapes(b.o.smoke)
	pickers := b.pickers(shapes, b.w.clients)
	job, svc, bootTime, err := b.runner()
	if err != nil {
		return report{}, err
	}
	if svc != nil {
		defer svc.close()
	}
	if err := b.warmUp(ctx, job, pickers[0]); err != nil {
		return report{}, err
	}
	w, samples := b.measure(ctx, pickers, time.Duration(b.o.seconds*float64(time.Second)), job, false)
	if svc != nil {
		if err := b.readJournals(svc, samples); err != nil {
			return report{}, err
		}
	}
	return b.endToEnd(samples, bootTime, w), nil
}

// jobFunc runs one job of a pass on a client's picker.
type jobFunc func(ctx context.Context, p *picker, traced bool) sample

// runner returns the workload's job function. Daemon workloads boot
// their service first — returning the boot's time — and hand it back
// for the caller to close.
func (b *bench) runner() (jobFunc, *service, time.Duration, error) {
	if b.w.kind == local {
		return b.localJob, nil, 0, nil
	}
	t0 := time.Now()
	svc, err := boot(b.w, filepath.Join(b.dir, "daemon"))
	if err != nil {
		return nil, nil, 0, err
	}
	return func(ctx context.Context, p *picker, traced bool) sample {
		return b.serviceJob(ctx, svc, p, traced)
	}, svc, time.Since(t0), nil
}

// endToEnd reduces a gated pass to the end-to-end metrics. A job's
// setup is the time until a System could generate for it: its System
// construction, after — for daemon workloads — the daemon's boot. Both
// timings are taken at reference speed (probe.go), each scaled by the
// host's speed over its own interval.
func (b *bench) endToEnd(samples []sample, bootTime time.Duration, w window) report {
	rep := report{Attempted: len(samples), Metrics: make(map[string]metric)}
	var lat, setup []float64
	faults, sims := 0, int64(0)
	for _, s := range samples {
		if s.err != nil {
			rep.Failed++
			fmt.Fprintf(b.o.log, "job (%s) failed: %v\n", s.shape, s.err)
			continue
		}
		lat = append(lat, b.probe.scale(s.start, s.end)*seconds(s.end-s.start))
		k := b.probe.scale(s.setupAt, s.setupAt+int64(s.setup))
		setup = append(setup, k*(bootTime+s.setup).Seconds())
		faults += s.faults
		sims += s.nominal + s.faulty
	}
	rep.Correct = rep.Attempted > 0 && rep.Failed == 0
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{finite(v), unit} }
	put("verified_share", "ratio", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted))
	put("setup_s", "s", median(setup))
	put("job_s", "s", median(lat))
	put("sims_per_fault", "count", float64(sims)/float64(faults))
	put("alloc_mb_per_fault", "MiB", float64(w.alloc)/(1<<20)/float64(faults))
	return rep
}

// layerPass runs the workload with one client — with one engine worker
// per job, the setting where the kernel's unparented sim.* spans can be
// attached to their task by interval containment — half the window
// untraced and half traced, and reduces it to the per-layer metrics.
func (b *bench) layerPass(ctx context.Context) (report, error) {
	pickers := b.pickers(b.w.shapes(b.o.smoke), 1)
	half := time.Duration(b.o.seconds / 2 * float64(time.Second))

	job, svc, _, err := b.runner()
	if err != nil {
		return report{}, err
	}
	if svc != nil {
		defer svc.close()
	}
	if err := b.warmUp(ctx, job, pickers[0]); err != nil {
		return report{}, err
	}
	plainW, plain := b.measure(ctx, pickers, half, job, false)
	tracedW, traced := b.measure(ctx, pickers, half, job, true)
	all := append(plain, traced...)
	if svc != nil {
		if err := b.readJournals(svc, all); err != nil {
			return report{}, err
		}
	}
	kern, err := kernelRows(ctx, b.o.smoke, b.now)
	if err != nil {
		return report{}, fmt.Errorf("kernel rows: %w", err)
	}
	return b.perLayer(all, plainW, tracedW, kern), nil
}

// seconds converts benchmark-clock nanoseconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile of xs by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
