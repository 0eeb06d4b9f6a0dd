package server

// The distributed-mode coordinator: a worker registry and shard queue
// behind four HTTP routes. The protocol is pull-based — workers
// register (POST /v1/workers), long-poll for shards, heartbeat while
// computing, and post results — so workers need no listening sockets
// and sit happily behind NAT. Every shard carries a lease: a worker
// that stops checking in (death, partition, SIGKILL mid-shard) has its
// shard re-queued by the reaper, so a lost worker costs a shard retry,
// never the job.
//
// Routes (registered only when Options.Distributed is set):
//
//	POST /v1/workers                register (api.WorkerHello → api.WorkerWelcome)
//	POST /v1/workers/{id}/poll      long-poll for a shard (200 api.ShardRequest | 204)
//	POST /v1/workers/{id}/heartbeat extend lease, report progress (api.WorkerHeartbeat)
//	POST /v1/workers/{id}/result    deliver a shard (api.ShardResult header line, then
//	                                the shard journal's bytes; 410 when stale)

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/failpoint"
	"repro/internal/obs"
)

// Failpoint sites on the distribution seams: fpShardAssign fails shard
// hand-out (the worker sees an error reply and polls again), and
// fpShardMerge fails the coordinator-side merge of a delivered shard —
// the job-fatal path cmd/chaos uses to prove merge failures are loud,
// not silent.
var (
	fpShardAssign = failpoint.At("server.shard.assign")
	fpShardMerge  = failpoint.At("server.shard.merge")
)

// shardState is the lifecycle of one shard inside the coordinator.
type shardState int

const (
	shardPending  shardState = iota // queued, waiting for a worker
	shardAssigned                   // leased to a worker
	shardDone                       // result merged (or taken over locally)
)

// shard is one unit of distributed work: a slice of a job's fault list
// plus the callbacks wiring it back to its job's runner. Mutable fields
// are guarded by the coordinator's mutex.
type shard struct {
	id     string
	jobID  string
	seq    int
	total  int
	faults []string
	req    api.JobRequest

	// results delivers the accepted ShardResult to the job's runner;
	// buffered to the job's shard count, so sends never block.
	results chan<- shardDelivery
	// notify emits a journal event into the job's tracer (safe after the
	// run ends — a sealed journal counts, not writes).
	notify func(name string, attrs ...obs.Attr)
	// progress folds worker-reported fault completions into the job's
	// progress tracker (delta may be negative on requeue).
	progress func(delta int)

	state      shardState
	worker     string
	deadline   time.Time
	assignedAt time.Time
	attempts   int
	reported   int
}

// request is the shard's wire form, as a worker receives it.
func (sh *shard) request() api.ShardRequest {
	return api.ShardRequest{
		V:        api.Version,
		JobID:    sh.jobID,
		ShardID:  sh.id,
		Seq:      sh.seq,
		Total:    sh.total,
		FaultIDs: sh.faults,
		Request:  sh.req,
	}
}

// shardDelivery hands an accepted result (and the delivering worker's
// ID and the assignment time the journal stitcher needs) to the runner.
type shardDelivery struct {
	sh         *shard
	res        *api.ShardResult
	worker     string
	assignedAt time.Time
}

// workerState is the registry entry of one live worker.
type workerState struct {
	id       string
	seq      int // registration number: id is "w<seq>"
	name     string
	pid      int
	joined   time.Time
	lastSeen time.Time
	// completed counts shards this worker delivered (per-worker
	// Prometheus series; the series disappears with the worker).
	completed uint64
}

// coordinator is the distributed-mode state of a Server: worker
// registry, shard queue, and lease bookkeeping.
type coordinator struct {
	lease    time.Duration
	pollWait time.Duration

	mu       sync.Mutex
	seq      int
	workers  map[string]*workerState
	pending  []*shard          // FIFO; requeued shards go to the front
	assigned map[string]*shard // by shard ID
	// runs maps job IDs of active distributed runs to their journal
	// event emitters, so worker lifecycle events land in the journals of
	// the jobs they affect.
	runs map[string]func(name string, attrs ...obs.Attr)
	// wake is closed and replaced whenever work arrives; idle pollers
	// wait on it.
	wake chan struct{}

	assignedTotal  atomic.Uint64
	requeuedTotal  atomic.Uint64
	completedTotal atomic.Uint64
}

func newCoordinator(lease, pollWait time.Duration) *coordinator {
	return &coordinator{
		lease:    lease,
		pollWait: pollWait,
		workers:  make(map[string]*workerState),
		assigned: make(map[string]*shard),
		runs:     make(map[string]func(name string, attrs ...obs.Attr)),
		wake:     make(chan struct{}),
	}
}

// wakeLocked wakes every idle poller. Callers hold c.mu.
func (c *coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// await returns the current wake channel.
func (c *coordinator) await() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wake
}

// attach registers an active distributed run's journal emitter;
// detach removes it. The run first receives one worker_join for every
// worker already registered, in worker-ID order, so its journal names
// the whole fleet it ran on whatever the join order; workers that
// register later reach it through notifyRunsLocked.
func (c *coordinator) attach(jobID string, notify func(string, ...obs.Attr)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fleet := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		fleet = append(fleet, w)
	}
	sort.Slice(fleet, func(a, b int) bool { return fleet[a].seq < fleet[b].seq })
	for _, w := range fleet {
		notify("worker_join", joinAttrs(w)...)
	}
	c.runs[jobID] = notify
}

func (c *coordinator) detach(jobID string) {
	c.mu.Lock()
	delete(c.runs, jobID)
	c.mu.Unlock()
}

// notifyRunsLocked emits a worker lifecycle event into every active
// run's journal. Callers hold c.mu; emission itself is lock-free
// (tracers are concurrency-safe).
func (c *coordinator) notifyRunsLocked(name string, attrs ...obs.Attr) {
	for _, notify := range c.runs {
		notify(name, attrs...)
	}
}

// joinAttrs are the attributes of a worker's worker_join event. Every
// journal record names a worker by the ID the coordinator minted; its
// worker_join alone also carries the operator-chosen name.
func joinAttrs(w *workerState) []obs.Attr {
	return []obs.Attr{obs.String("worker", w.id), obs.String("name", w.name), obs.Int("pid", w.pid)}
}

// register admits a worker and mints its identity.
func (c *coordinator) register(hello api.WorkerHello) api.WorkerWelcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	id := fmt.Sprintf("w%d", c.seq)
	name := hello.Name
	if name == "" {
		name = id
	}
	now := time.Now()
	w := &workerState{id: id, seq: c.seq, name: name, pid: hello.PID, joined: now, lastSeen: now}
	c.workers[id] = w
	c.notifyRunsLocked("worker_join", joinAttrs(w)...)
	c.wakeLocked() // an idle fleet may have pollers parked on an empty queue
	return api.WorkerWelcome{
		V:        api.Version,
		WorkerID: id,
		LeaseMS:  c.lease.Milliseconds(),
		PollMS:   c.pollWait.Milliseconds(),
	}
}

// enqueue adds a job's shards to the queue.
func (c *coordinator) enqueue(shards []*shard) {
	c.mu.Lock()
	c.pending = append(c.pending, shards...)
	c.wakeLocked()
	c.mu.Unlock()
}

// assign pops the next pending shard for a worker, or nil when the
// queue is empty (or the worker unknown — second return false).
func (c *coordinator) assign(workerID string) (*shard, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return nil, false
	}
	w.lastSeen = time.Now()
	if len(c.pending) == 0 {
		return nil, true
	}
	sh := c.pending[0]
	c.pending = c.pending[1:]
	sh.state = shardAssigned
	sh.worker = workerID
	now := time.Now()
	sh.deadline = now.Add(c.lease)
	sh.assignedAt = now
	sh.attempts++
	c.assigned[sh.id] = sh
	c.assignedTotal.Add(1)
	sh.notify("shard_assign",
		obs.String("shard", sh.id), obs.String("worker", w.id),
		obs.Int("faults", len(sh.faults)), obs.Int("attempt", sh.attempts))
	return sh, true
}

// heartbeat extends a shard lease and folds the worker's progress
// report into the job's tracker. Unknown workers report false.
func (c *coordinator) heartbeat(hb api.WorkerHeartbeat) bool {
	c.mu.Lock()
	w, ok := c.workers[hb.WorkerID]
	if !ok {
		c.mu.Unlock()
		return false
	}
	w.lastSeen = time.Now()
	var progress func(int)
	delta := 0
	if sh := c.assigned[hb.ShardID]; sh != nil && sh.worker == hb.WorkerID && sh.state == shardAssigned {
		sh.deadline = time.Now().Add(c.lease)
		if d := int(hb.Done) - sh.reported; d > 0 {
			sh.reported = int(hb.Done)
			delta, progress = d, sh.progress
		}
	}
	c.mu.Unlock()
	if progress != nil {
		progress(delta)
	}
	return true
}

// result accepts a delivered shard. Results are deterministic, so the
// first delivery wins regardless of which worker (or lease epoch)
// computed it; anything later is stale. Returns resultStale for
// shards this coordinator no longer wants and resultUnknownWorker for
// unregistered workers.
type resultVerdict int

const (
	resultAccepted resultVerdict = iota
	resultStale
	resultUnknownWorker
)

func (c *coordinator) result(workerID string, res *api.ShardResult) resultVerdict {
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return resultUnknownWorker
	}
	w.lastSeen = time.Now()
	sh := c.assigned[res.ShardID]
	if sh == nil {
		// Not assigned — it may have been requeued and still be pending
		// (presumed-dead worker finishing after all): accept that too.
		for i, p := range c.pending {
			if p.id == res.ShardID && p.jobID == res.JobID {
				sh = p
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				break
			}
		}
	}
	if sh == nil || sh.state == shardDone || sh.jobID != res.JobID {
		c.mu.Unlock()
		return resultStale
	}
	delete(c.assigned, sh.id)
	sh.state = shardDone
	w.completed++
	c.completedTotal.Add(1)
	// Credit the shard's remaining progress units in one step.
	delta := len(sh.faults) - sh.reported
	sh.reported = len(sh.faults)
	progress := sh.progress
	assignedAt := sh.assignedAt
	c.mu.Unlock()

	if delta != 0 {
		progress(delta)
	}
	sh.notify("shard_done",
		obs.String("shard", sh.id), obs.String("worker", w.id),
		obs.Int("solutions", len(res.Solutions)))
	sh.results <- shardDelivery{sh: sh, res: res, worker: w.id, assignedAt: assignedAt}
	return resultAccepted
}

// reap requeues shards whose lease expired and drops workers that
// vanished (no contact for two leases). Runs periodically from the
// server's reaper goroutine.
func (c *coordinator) reap(now time.Time) {
	c.mu.Lock()
	var rollbacks []func()
	for id, sh := range c.assigned {
		if now.Before(sh.deadline) {
			continue
		}
		delete(c.assigned, id)
		sh.state = shardPending
		lost, reported := sh.worker, sh.reported
		sh.worker = ""
		sh.reported = 0
		c.pending = append([]*shard{sh}, c.pending...)
		c.requeuedTotal.Add(1)
		sh.notify("shard_requeue",
			obs.String("shard", sh.id), obs.String("worker", lost),
			obs.Int("attempt", sh.attempts))
		if reported > 0 {
			progress := sh.progress
			rollbacks = append(rollbacks, func() { progress(-reported) })
		}
	}
	cutoff := now.Add(-2 * c.lease)
	for id, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			continue
		}
		delete(c.workers, id)
		c.notifyRunsLocked("worker_lost", obs.String("worker", w.id))
	}
	if len(rollbacks) > 0 || len(c.pending) > 0 {
		c.wakeLocked()
	}
	c.mu.Unlock()
	for _, fn := range rollbacks {
		fn()
	}
}

// steal removes one pending shard of the given job from the queue for
// local execution — the no-workers fallback. The caller (the job's
// runner) owns the shard from here on; a straggler result for it is
// answered with 410.
func (c *coordinator) steal(jobID string) *shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, sh := range c.pending {
		if sh.jobID != jobID {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		sh.state = shardDone
		return sh
	}
	return nil
}

// abandon removes every shard of a job (runner exiting: cancellation,
// merge failure, or completion). Workers still computing abandoned
// shards get 410 on delivery and move on.
func (c *coordinator) abandon(jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.pending[:0]
	for _, sh := range c.pending {
		if sh.jobID != jobID {
			kept = append(kept, sh)
		}
	}
	c.pending = kept
	for id, sh := range c.assigned {
		if sh.jobID == jobID {
			delete(c.assigned, id)
		}
	}
}

// known reports whether a worker is registered.
func (c *coordinator) known(workerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[workerID] != nil
}

// liveWorkers returns the registered worker count.
func (c *coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// distSnapshot is a point-in-time view of the coordinator for status,
// metrics, and tests.
type distSnapshot struct {
	Workers       []workerInfo
	Pending       int
	Assigned      uint64
	Requeued      uint64
	Completed     uint64
	AssignedLive  int
	WorkersJoined int
}

// workerInfo is one worker's registry view.
type workerInfo struct {
	ID        string
	Name      string
	Completed uint64
}

func (c *coordinator) snapshot() distSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := distSnapshot{
		Pending:       len(c.pending),
		Assigned:      c.assignedTotal.Load(),
		Requeued:      c.requeuedTotal.Load(),
		Completed:     c.completedTotal.Load(),
		AssignedLive:  len(c.assigned),
		WorkersJoined: c.seq,
	}
	for _, w := range c.workers {
		snap.Workers = append(snap.Workers, workerInfo{ID: w.id, Name: w.name, Completed: w.completed})
	}
	return snap
}

// DistStats returns the coordinator's counters (zero value when the
// server is not distributed) — the observability hook tests and
// cmd/chaos assert against.
func (s *Server) DistStats() (workers, pending int, assigned, requeued, completed uint64) {
	if s.coord == nil {
		return 0, 0, 0, 0, 0
	}
	snap := s.coord.snapshot()
	return len(snap.Workers), snap.Pending, snap.Assigned, snap.Requeued, snap.Completed
}

// reapLoop drives lease expiry while the daemon runs.
func (s *Server) reapLoop() {
	t := time.NewTicker(s.opt.WorkerLease / 4)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			s.coord.reap(now)
		}
	}
}

// workerRoutes mounts the shard protocol.
func (s *Server) workerRoutes() {
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkerJoin)
	s.mux.HandleFunc("POST /v1/workers/{id}/poll", s.handleWorkerPoll)
	s.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	s.mux.HandleFunc("POST /v1/workers/{id}/result", s.handleWorkerResult)
}

// maxWorkerBody bounds the body of every worker route.
const maxWorkerBody = 64 << 20

// decodeBody strictly decodes a bounded JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{ Validate() error }) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWorkerBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error(), 0)
		return false
	}
	if err := v.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return false
	}
	return true
}

func (s *Server) handleWorkerJoin(w http.ResponseWriter, r *http.Request) {
	var hello api.WorkerHello
	if !decodeBody(w, r, &hello) {
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
		return
	}
	welcome := s.coord.register(hello)
	w.Header().Set("Content-Type", "application/json")
	writeWire(w, welcome)
}

func (s *Server) handleWorkerPoll(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	if err := fpShardAssign.Hit(); err != nil {
		writeError(w, http.StatusInternalServerError, "shard assignment failed: "+err.Error(), 0)
		return
	}
	deadline := time.Now().Add(s.coord.pollWait)
	for {
		sh, known := s.coord.assign(workerID)
		if !known {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no such worker %q (re-register)", workerID), 0)
			return
		}
		if sh != nil {
			w.Header().Set("Content-Type", "application/json")
			writeWire(w, sh.request())
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		wait := 250 * time.Millisecond
		if remain < wait {
			wait = remain
		}
		t := time.NewTimer(wait)
		select {
		case <-r.Context().Done():
			t.Stop()
			return
		case <-s.baseCtx.Done():
			t.Stop()
			w.WriteHeader(http.StatusNoContent)
			return
		case <-s.coord.await():
			t.Stop()
		case <-t.C:
		}
	}
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var hb api.WorkerHeartbeat
	if !decodeBody(w, r, &hb) {
		return
	}
	if hb.WorkerID != workerID {
		writeError(w, http.StatusBadRequest, "heartbeat worker_id does not match path", 0)
		return
	}
	if !s.coord.heartbeat(hb) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such worker %q (re-register)", workerID), 0)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleWorkerResult accepts a shard result: its header line, then the
// shard journal's bytes (api.ParseShardResult). An unknown worker or an
// oversized Content-Length is refused before the body is read; the body
// is then read once, into a buffer of its declared length, and the
// journal reaches the stitch as a slice of that buffer.
func (s *Server) handleWorkerResult(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	if !s.coord.known(workerID) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such worker %q (re-register)", workerID), 0)
		return
	}
	if r.ContentLength > maxWorkerBody {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %d bytes exceed the %d-byte limit", r.ContentLength, maxWorkerBody), 0)
		return
	}
	var body []byte
	var err error
	if r.ContentLength >= 0 {
		body = make([]byte, r.ContentLength)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxWorkerBody))
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error(), 0)
		return
	}
	res, err := api.ParseShardResult(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error(), 0)
		return
	}
	switch s.coord.result(workerID, &res) {
	case resultUnknownWorker:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such worker %q (re-register)", workerID), 0)
	case resultStale:
		// The shard was already delivered, taken over locally, or its job
		// is gone. The worker's effort is redundant, not wrong.
		writeError(w, http.StatusGone, fmt.Sprintf("shard %q is no longer wanted", res.ShardID), 0)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}
