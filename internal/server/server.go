// Package server is the ATPG job daemon: an HTTP JSON service that
// accepts test-generation jobs over the versioned wire schema (package
// api), runs them on a bounded worker pool over the repro facade, and
// makes every run observable (SSE event stream, /metrics, /progress)
// and durable (per-job journal, checkpoint, and result files under a
// data directory).
//
// Lifecycle guarantees:
//
//   - Submissions beyond the bounded queue are rejected with 429, never
//     buffered without bound; a per-client token bucket throttles
//     enthusiastic clients before they reach the queue.
//   - DELETE cancels a job promptly via context cancellation; its
//     journal is sealed as a truncated-but-valid run_canceled record.
//   - A daemon killed (or drained via SIGTERM) mid-job marks the job
//     interrupted; the next daemon start over the same data directory
//     re-enqueues it with checkpoint resume, producing a result
//     byte-identical to an uninterrupted run.
//
// Routes:
//
//	POST   /v1/jobs             submit (api.JobRequest → api.JobStatus)
//	GET    /v1/jobs             list job statuses
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/result the job's encoded api.JobResult
//	GET    /v1/jobs/{id}/events SSE stream of the job's trace events
//	GET    /v1/server           daemon status (api.ServerStatus)
//	GET    /healthz             liveness (503 while draining)
//	GET    /readyz              readiness (queue-accepting state)
//	GET    /metrics             daemon status snapshot (JSON; Prometheus
//	                            text with Accept: text/plain)
//	GET    /progress            progress of the currently running job
//	GET    /debug/pprof/        profiling
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/ckpt"
	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obs/hist"
)

// Failpoint sites on the daemon's backpressure seams: fpSubmitFull
// forces the queue-full rejection path, fpSSEWrite simulates a slow
// SSE client (arm with a sleep to build hub backpressure and provoke
// drops), and fpSaveRecord injects persistence failures.
var (
	fpSubmitFull = failpoint.At("server.submit.full")
	fpSSEWrite   = failpoint.At("server.sse.write")
	fpSaveRecord = failpoint.At("server.save.record")
)

// Options wires a Server.
type Options struct {
	// DataDir is the durable root: jobs/<id>/{job.json, ckpt.json,
	// journal.jsonl, result.json}.
	DataDir string
	// QueueCap bounds the submission queue; submissions beyond it get
	// 429 (default 16).
	QueueCap int
	// Workers is the number of jobs executed concurrently (default 1 —
	// each job already parallelizes internally across its session
	// workers).
	Workers int
	// RatePerSec and RateBurst shape the per-client submission token
	// bucket (defaults 5/s, burst 10; RatePerSec < 0 disables).
	RatePerSec float64
	RateBurst  int
	// CheckpointEvery debounces per-job checkpoint writes (0: the ckpt
	// package default of 2s).
	CheckpointEvery time.Duration
	// MemHighWater and MemLowWater (bytes of live heap) drive the memory
	// watermark monitor: above the high watermark the daemon sheds new
	// submissions with 503 + Retry-After until the heap drops below the
	// low watermark. Zero disables the monitor. MemLowWater defaults to
	// 80% of MemHighWater.
	MemHighWater uint64
	MemLowWater  uint64
	// Distributed turns the daemon into a shard coordinator: jobs are
	// partitioned across registered workers (atpgd -worker) and merged
	// back into results byte-identical to single-node runs. The worker
	// routes (/v1/workers...) exist only in this mode.
	Distributed bool
	// ShardSize is the number of faults per shard in distributed mode
	// (default 8).
	ShardSize int
	// WorkerLease bounds how long a worker may hold a shard without
	// checking in before the shard is re-queued and the worker presumed
	// dead (default 10s).
	WorkerLease time.Duration
	// PollWait is the long-poll window of the worker shard poll
	// (default 20s).
	PollWait time.Duration
	// FallbackGrace is how long a distributed job tolerates an empty
	// worker fleet before the coordinator starts running pending shards
	// itself (default 2s).
	FallbackGrace time.Duration
}

// Server is the job daemon. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	opt     Options
	store   *ckpt.Store
	mux     *http.ServeMux
	limiter *rateLimiter
	start   time.Time

	queue chan *Job

	mu   sync.Mutex
	jobs map[string]*Job
	seq  uint64

	draining atomic.Bool
	workers  sync.WaitGroup
	stop     context.CancelFunc
	baseCtx  context.Context

	// killed simulates a crash for the chaos harness: once set, the
	// daemon stops persisting state (a dead process writes nothing), so
	// on-disk records freeze at their pre-kill values and the next New
	// over the data directory exercises real crash recovery.
	killed atomic.Bool

	// Memory watermark monitor state: shedding flips above/below the
	// configured watermarks, shedTotal counts submissions rejected while
	// shedding, heapBytes is the sampler's last observation. memFn is
	// the heap probe (tests substitute a stub).
	shedding  atomic.Bool
	shedTotal atomic.Uint64
	heapBytes atomic.Uint64
	memFn     func() uint64

	// Daemon-level latency histograms: queue wait, job duration, and
	// per-route HTTP request latency (see routeClass). All nanoseconds.
	queueWait *hist.Histogram
	jobDur    *hist.Histogram
	httpLat   *hist.Registry

	// Engine series for the Prometheus exposition: a snapshot provider
	// for the currently running job (nil when idle) and the sealed
	// snapshot of the last finished one. With Workers > 1 the last
	// writer wins — the exposition shows one job's engine at a time;
	// per-job snapshots live in the journals.
	engineLive atomic.Pointer[func() api.MetricsSnapshot]
	lastEngine atomic.Pointer[api.MetricsSnapshot]

	// execFn runs one job attempt; tests substitute stubs so queue and
	// lifecycle behavior can be exercised without multi-second ATPG runs.
	execFn func(ctx context.Context, j *Job, resume bool) error

	// coord is the distributed-mode shard coordinator (nil on a
	// single-node daemon).
	coord *coordinator
}

// New builds the daemon over its data directory, recovers every
// non-terminal job left by a previous instance (re-enqueued with
// checkpoint resume), and starts the worker pool.
func New(o Options) (*Server, error) {
	s, err := newServer(o)
	if err != nil {
		return nil, err
	}
	s.startWorkers()
	return s, nil
}

// newServer is New without starting the workers; tests substitute
// execFn in between so recovered jobs never hit the real executor.
func newServer(o Options) (*Server, error) {
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.RatePerSec == 0 {
		o.RatePerSec = 5
	}
	if o.RateBurst <= 0 {
		o.RateBurst = 10
	}
	if o.ShardSize <= 0 {
		o.ShardSize = 8
	}
	if o.WorkerLease <= 0 {
		o.WorkerLease = 10 * time.Second
	}
	if o.PollWait <= 0 {
		o.PollWait = 20 * time.Second
	}
	if o.FallbackGrace <= 0 {
		o.FallbackGrace = 2 * time.Second
	}
	store, err := ckpt.NewStore(o.DataDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:       o,
		store:     store,
		limiter:   newRateLimiter(o.RatePerSec, o.RateBurst),
		start:     time.Now(),
		jobs:      make(map[string]*Job),
		baseCtx:   ctx,
		stop:      cancel,
		queueWait: hist.New(),
		jobDur:    hist.New(),
		httpLat:   hist.NewRegistry(),
	}
	if o.Distributed {
		s.coord = newCoordinator(o.WorkerLease, o.PollWait)
	}
	s.execFn = s.execute
	s.memFn = liveHeapBytes
	if s.opt.MemHighWater > 0 && s.opt.MemLowWater == 0 {
		s.opt.MemLowWater = s.opt.MemHighWater / 5 * 4
	}

	recovered, err := s.recover()
	if err != nil {
		cancel()
		return nil, err
	}
	// The queue holds QueueCap fresh submissions plus every recovered
	// job; handleSubmit enforces the QueueCap bound itself, so recovered
	// jobs can never be starved out by the backpressure path.
	s.queue = make(chan *Job, o.QueueCap+len(recovered))
	for _, j := range recovered {
		j.enqueued = time.Now()
		s.queue <- j
	}

	s.routes()
	return s, nil
}

// startWorkers launches the worker pool and, when watermarks are
// configured, the memory monitor.
func (s *Server) startWorkers() {
	s.workers.Add(s.opt.Workers)
	for i := 0; i < s.opt.Workers; i++ {
		go s.workerLoop()
	}
	if s.opt.MemHighWater > 0 {
		go s.memLoop(250 * time.Millisecond)
	}
	if s.coord != nil {
		go s.reapLoop()
	}
}

// liveHeapBytes is the production heap probe of the memory monitor.
func liveHeapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memLoop samples the live heap and flips the shedding flag with
// hysteresis: shed above the high watermark, resume below the low one.
// Shedding rejects *new* submissions (503 + Retry-After); jobs already
// accepted keep running — their state is durable and dropping them
// would trade a memory spike for lost work.
func (s *Server) memLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			heap := s.memFn()
			s.heapBytes.Store(heap)
			switch {
			case heap > s.opt.MemHighWater:
				if s.shedding.CompareAndSwap(false, true) {
					fmt.Fprintf(os.Stderr, "atpgd: heap %d over high watermark %d: shedding submissions\n", heap, s.opt.MemHighWater)
				}
			case heap < s.opt.MemLowWater:
				if s.shedding.CompareAndSwap(true, false) {
					fmt.Fprintf(os.Stderr, "atpgd: heap %d under low watermark %d: accepting submissions\n", heap, s.opt.MemLowWater)
				}
			}
		}
	}
}

// Kill simulates a crash of the daemon for chaos testing: persistence
// stops first (so on-disk state freezes exactly where a dead process
// would leave it), every running job's context is cancelled, and the
// worker pool is awaited so the data directory has a single owner
// before a new Server is constructed over it. No job states are
// persisted by the teardown — that is the point.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.stop()
	s.workers.Wait()
}

// recover scans the data directory and rebuilds the registry: terminal
// jobs come back as browsable history, non-terminal ones (queued,
// running, or interrupted at the moment the previous daemon died) are
// returned for re-enqueueing with checkpoint resume.
func (s *Server) recover() ([]*Job, error) {
	ids, err := s.store.List()
	if err != nil {
		return nil, err
	}
	var pending []*Job
	for _, id := range ids {
		var rec jobRecord
		if err := s.store.LoadRecord(id, &rec); err != nil {
			// A truncated or corrupt record — torn-write residue of a
			// crash — is not worth refusing to boot over; log it and
			// leave the job's files on disk for manual inspection.
			fmt.Fprintf(os.Stderr, "atpgd: skipping job %s: corrupt record: %v\n", id, err)
			continue
		}
		paths, perr := s.store.Job(id)
		if perr != nil {
			continue
		}
		j := jobFromRecord(rec, paths)
		if !rec.State.Terminal() {
			j.mu.Lock()
			j.state = api.StateQueued
			j.resume = true
			j.mu.Unlock()
			pending = append(pending, j)
		}
		s.jobs[id] = j
	}
	for _, j := range pending {
		s.saveJob(j)
	}
	return pending, nil
}

// workerLoop pulls jobs off the queue until shutdown.
func (s *Server) workerLoop() {
	defer s.workers.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			if s.baseCtx.Err() != nil {
				return
			}
			s.runJob(s.baseCtx, j)
		}
	}
}

// Handler returns the daemon's HTTP handler: the route mux wrapped in
// the per-route latency middleware.
func (s *Server) Handler() http.Handler { return s.timed(s.mux) }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/server", func(w http.ResponseWriter, r *http.Request) {
		export.WriteJSON(w, s.status())
	})
	if s.coord != nil {
		s.workerRoutes()
	}
	s.mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "atpgd — ATPG job daemon\n\n"+
			"POST   /v1/jobs             submit a job (api.JobRequest)\n"+
			"GET    /v1/jobs             list jobs\n"+
			"GET    /v1/jobs/{id}        job status\n"+
			"DELETE /v1/jobs/{id}        cancel\n"+
			"GET    /v1/jobs/{id}/result job result (deterministic JSON)\n"+
			"GET    /v1/jobs/{id}/events SSE trace stream\n"+
			"GET    /v1/server           daemon status\n"+
			"GET    /healthz  /metrics  /progress  /debug/pprof/\n")
	})
	export.Register(s.mux, export.Options{
		NoIndex: true,
		Metrics: func() any { return s.status() },
		Prom:    s.writeProm,
		Progress: func() obs.ProgressSnapshot {
			if p := s.runningProgress(); p != nil {
				return p.Snapshot()
			}
			return obs.ProgressSnapshot{}
		},
		Health: func() (any, bool) {
			st := s.status()
			return st, st.State == "serving"
		},
		// Readiness is the queue-accepting state: a draining or
		// load-shedding daemon is still alive (and must stay reachable
		// for status polls), but load balancers should stop routing
		// submissions to it.
		Ready: func() (any, bool) {
			draining := s.draining.Load()
			shedding := s.shedding.Load()
			body := map[string]any{
				"accepting":    !draining && !shedding,
				"queue_depth":  len(s.queue),
				"queue_cap":    s.opt.QueueCap,
				"mem_shedding": shedding,
			}
			if s.opt.MemHighWater > 0 {
				body["heap_bytes"] = s.heapBytes.Load()
				body["mem_high_water"] = s.opt.MemHighWater
				body["mem_low_water"] = s.opt.MemLowWater
			}
			return body, !draining && !shedding
		},
	})
}

// status assembles the daemon-level wire status.
func (s *Server) status() api.ServerStatus {
	st := api.ServerStatus{
		V:          api.Version,
		State:      "serving",
		UptimeMS:   time.Since(s.start).Milliseconds(),
		QueueDepth: len(s.queue),
		QueueCap:   s.opt.QueueCap,
		Jobs:       make(map[api.JobState]int),
	}
	if s.draining.Load() {
		st.State = "draining"
	}
	st.MemShedding = s.shedding.Load()
	st.MemShedTotal = s.shedTotal.Load()
	if s.coord != nil {
		snap := s.coord.snapshot()
		st.Distributed = true
		st.Workers = len(snap.Workers)
		st.ShardsPending = snap.Pending
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		st.Jobs[j.State()]++
		if j.hub != nil {
			st.EventsDropped += j.hub.Dropped()
		}
	}
	s.mu.Unlock()
	return st
}

// runningProgress returns the progress tracker of a currently running
// job, or nil when idle.
func (s *Server) runningProgress() *obs.Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		p := j.prog
		j.mu.Unlock()
		if p != nil {
			return p
		}
	}
	return nil
}

// saveJob persists the job's durable projection; persistence failures
// are reported on stderr but never take the daemon down. A killed
// daemon persists nothing — crash simulation must freeze disk state.
func (s *Server) saveJob(j *Job) {
	if s.killed.Load() {
		return
	}
	if err := fpSaveRecord.Hit(); err != nil {
		fmt.Fprintf(os.Stderr, "atpgd: persist job %s: %v\n", j.ID, err)
		return
	}
	if err := s.store.SaveRecord(j.ID, j.record()); err != nil {
		fmt.Fprintf(os.Stderr, "atpgd: persist job %s: %v\n", j.ID, err)
	}
}

// newJobID mints a sortable unique job identifier.
func (s *Server) newJobID(now time.Time) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.seq++
		id := fmt.Sprintf("%s-%04d", now.UTC().Format("20060102t150405"), s.seq)
		if _, taken := s.jobs[id]; !taken {
			return id
		}
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ok, retry := s.limiter.allow(clientKey(r.RemoteAddr), time.Now()); !ok {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Seconds())+1))
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded", retry)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
		return
	}
	if s.shedding.Load() {
		// Memory watermark breach: shed the submission with a retry
		// hint. The monitor clears the flag once the heap recedes below
		// the low watermark.
		s.shedTotal.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is shedding load (memory high watermark)", 5*time.Second)
		return
	}
	var req api.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error(), 0)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}

	// The queue bound is enforced on depth, not channel capacity: the
	// channel is oversized to hold recovered jobs (see New).
	if ferr := fpSubmitFull.Hit(); ferr != nil {
		writeError(w, http.StatusTooManyRequests, "job queue is full", time.Second)
		return
	}
	if len(s.queue) >= s.opt.QueueCap {
		writeError(w, http.StatusTooManyRequests, "job queue is full", time.Second)
		return
	}

	now := time.Now().UTC()
	id := s.newJobID(now)
	paths, err := s.store.Create(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	j := &Job{
		ID:       id,
		req:      req,
		state:    api.StateQueued,
		created:  now,
		enqueued: time.Now(),
		hub:      NewHub(),
		paths:    paths,
	}
	s.saveJob(j)
	// Register before enqueueing: a worker may pick the job up (and a
	// client may poll it) the instant it lands in the queue.
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()

	select {
	case s.queue <- j:
	default:
		// Lost the depth-check race; undo the submission.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		_ = s.store.Remove(id)
		writeError(w, http.StatusTooManyRequests, "job queue is full", time.Second)
		return
	}

	w.Header().Set("Location", "/v1/jobs/"+id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeWire(w, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	statuses := make([]api.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	// Sortable IDs make the listing chronological.
	for i := 1; i < len(statuses); i++ {
		for k := i; k > 0 && statuses[k].ID < statuses[k-1].ID; k-- {
			statuses[k], statuses[k-1] = statuses[k-1], statuses[k]
		}
	}
	export.WriteJSON(w, statuses)
}

// job resolves the {id} path value, writing a 404 envelope when absent.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", id), 0)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		w.Header().Set("Content-Type", "application/json")
		writeWire(w, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	switch j.state {
	case api.StateQueued:
		j.state = api.StateCanceled
		j.userCanceled = true
		j.errMsg = "canceled by client"
		now := time.Now().UTC()
		j.finished = &now
	case api.StateRunning:
		j.userCanceled = true
		if j.cancel != nil {
			j.cancel()
		}
	default:
		// Terminal or interrupted: cancel is idempotent.
	}
	j.mu.Unlock()
	s.saveJob(j)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeWire(w, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if st := j.State(); st != api.StateSucceeded {
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s, result exists only once succeeded", j.ID, st), 0)
		return
	}
	// Serve the persisted bytes verbatim — the byte-identity contract:
	// this body diffs clean against the CLI's -result-json file.
	data, err := os.ReadFile(j.paths.Result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported", 0)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Leading status frame so a late subscriber learns where the job is
	// even when no further trace events arrive.
	buf := writeStatusSSE(w, nil, j)
	fl.Flush()

	ch, unsub := j.hub.Subscribe(256)
	defer unsub()
	for {
		select {
		case <-r.Context().Done():
			return
		case fr, open := <-ch:
			if !open {
				// Hub closed: the job reached a terminal state.
				writeStatusSSE(w, buf, j)
				fl.Flush()
				return
			}
			// Slow-client injection point: armed with a sleep, this
			// stalls the subscriber so the hub's bounded buffer fills and
			// drops (atpgd_sse_events_dropped_total) become observable.
			_ = fpSSEWrite.Hit()
			buf = writeSSE(w, buf, fr.typ, fr.line)
			fl.Flush()
		}
	}
}

// Shutdown drains the daemon: new submissions get 503, queued jobs are
// persisted as interrupted, running jobs are canceled (their cores
// flush checkpoints and seal journals as run_canceled) and persisted as
// interrupted, and the worker pool is awaited up to ctx's deadline. A
// subsequent New over the same data directory resumes every interrupted
// job from its checkpoint.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)

	// Flush the queue before stopping workers: jobs still waiting have
	// never run and must come back as interrupted, not vanish.
	for {
		select {
		case j := <-s.queue:
			j.mu.Lock()
			if j.state == api.StateQueued {
				j.state = api.StateInterrupted
				j.resume = true
			}
			j.mu.Unlock()
			s.saveJob(j)
			continue
		default:
		}
		break
	}

	// Cancel the base context: running jobs wind down through their
	// cancellation path and classify as interrupted (draining is set).
	s.stop()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain incomplete: %w", ctx.Err())
	}
}

// Store exposes the job store (tests and the daemon's startup banner).
func (s *Server) Store() *ckpt.Store { return s.store }

// writeWire encodes v in the canonical wire form (api.Encode).
func writeWire(w http.ResponseWriter, v any) {
	b, err := api.Encode(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	_, _ = w.Write(b)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := api.Encode(api.ErrorReply{V: api.Version, Error: msg, RetryAfterMS: retryAfter.Milliseconds()})
	_, _ = w.Write(b)
}

// writeSSE writes one server-sent event frame, assembled in buf, and
// returns buf for reuse. data is one line of JSON (a journal record or
// a compact status), so a single data line suffices.
func writeSSE(w http.ResponseWriter, buf []byte, event string, data []byte) []byte {
	buf = append(append(buf[:0], "event: "...), event...)
	buf = append(append(append(buf, "\ndata: "...), data...), "\n\n"...)
	_, _ = w.Write(buf)
	return buf
}

// writeStatusSSE writes the job's status as a "status" frame.
func writeStatusSSE(w http.ResponseWriter, buf []byte, j *Job) []byte {
	b, err := json.Marshal(j.Status())
	if err != nil {
		return buf
	}
	return writeSSE(w, buf, "status", b)
}
