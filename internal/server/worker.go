package server

// The worker side of distributed mode. RunWorker is the whole life of
// an atpgd -worker process: register with the coordinator, long-poll
// for shards, compute each one on a session rebuilt from the shard's
// embedded job request, heartbeat while computing, and post the result.
// Workers are deliberately stateless — no data directory, no checkpoint
// — because durability of a distributed run lives entirely in the
// coordinator's merge checkpoint. A worker that dies mid-shard simply
// stops heartbeating; the coordinator re-queues the shard and the
// worker (or its replacement) re-registers and carries on.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/api"
	"repro/internal/failpoint"
	"repro/internal/obs"
)

// Failpoint sites on the worker's RPC seams: fpWorkerPoll fails the
// shard poll (the worker backs off and re-registers), fpWorkerPost
// fails result delivery (the shard is dropped and the coordinator's
// lease reaper re-queues it) — the two injection points cmd/chaos uses
// to exercise shard retry without killing processes.
var (
	fpWorkerPoll = failpoint.At("worker.shard.poll")
	fpWorkerPost = failpoint.At("worker.shard.post")
)

// WorkerOptions wires RunWorker.
type WorkerOptions struct {
	// Coordinator is the base URL of the coordinating atpgd
	// (e.g. http://127.0.0.1:8080).
	Coordinator string
	// Name is the operator-chosen worker label (Prometheus series,
	// journal attribution); the coordinator assigns one when empty.
	Name string
	// Client is the HTTP client to use (default: a fresh http.Client —
	// long-poll friendly, no global timeout).
	Client *http.Client
	// Logf receives worker lifecycle lines (default: stderr).
	Logf func(format string, args ...any)
}

// RunWorker runs the worker loop until ctx is canceled: register,
// poll, compute, deliver, repeat. Transient coordinator failures
// (restart, network) degrade to backoff-and-re-register, never to
// worker exit — the only way out is ctx.
func RunWorker(ctx context.Context, o WorkerOptions) error {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Logf == nil {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "atpgd-worker: "+format+"\n", args...)
		}
	}
	base := strings.TrimRight(o.Coordinator, "/")

	backoff := 250 * time.Millisecond
	for ctx.Err() == nil {
		welcome, err := workerRegister(ctx, o, base)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			o.Logf("register with %s: %v (retrying in %s)", base, err, backoff)
			if !sleepCtx(ctx, backoff) {
				break
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		backoff = 250 * time.Millisecond
		o.Logf("registered as %s (lease %dms)", welcome.WorkerID, welcome.LeaseMS)
		workerServe(ctx, o, base, welcome)
	}
	return ctx.Err()
}

// sleepCtx sleeps d or until ctx cancels; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// postJSON posts body, encoded compactly by json.Marshal (the
// coordinator is a program, not a reader), and decodes a JSON reply into
// out when non-nil. Returns the HTTP status. Shard results do not come
// this way: workerDeliver posts their journal bytes behind the header
// line without encoding them.
func postJSON(ctx context.Context, c *http.Client, url string, body, out any) (int, error) {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return 0, fmt.Errorf("server: encode %T: %w", body, err)
		}
	}
	return post(ctx, c, url, int64(len(b)), func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(b)), nil
	}, out)
}

// post posts a body of n bytes and decodes a JSON reply into out when
// non-nil. Returns the HTTP status. body is called for the request and
// again whenever net/http resends it on a new connection.
func post(ctx context.Context, c *http.Client, url string, n int64, body func() (io.ReadCloser, error), out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, http.NoBody)
	if err != nil {
		return 0, err
	}
	if n > 0 {
		if req.Body, err = body(); err != nil {
			return 0, err
		}
		req.ContentLength, req.GetBody = n, body
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		dec := json.NewDecoder(resp.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func workerRegister(ctx context.Context, o WorkerOptions, base string) (api.WorkerWelcome, error) {
	hello := api.WorkerHello{V: api.Version, Name: o.Name, PID: os.Getpid()}
	var welcome api.WorkerWelcome
	code, err := postJSON(ctx, o.Client, base+"/v1/workers", hello, &welcome)
	if err != nil {
		return welcome, err
	}
	if code != http.StatusOK {
		return welcome, fmt.Errorf("coordinator answered %d", code)
	}
	return welcome, welcome.Validate()
}

// journalBuffer is the journal buffer a worker computes its shards into,
// reused from shard to shard. A result post reads the buffer in place,
// and net/http may go on reading a request body after RoundTrip returns
// (when the server answers before it has read it all), so the buffer is
// reused only once the transport has closed every body that reads it.
type journalBuffer struct {
	bytes.Buffer
	// reading counts the posted bodies the transport has not closed.
	reading atomic.Int32
}

// next returns b emptied for the next shard, or a fresh buffer while a
// request body may still read b (or when b is nil).
func (b *journalBuffer) next() *journalBuffer {
	if b == nil || b.reading.Load() != 0 {
		return new(journalBuffer)
	}
	b.Reset()
	return b
}

// resultBody is one post of a shard result: the header line, then the
// journal bytes read in place from buf.
type resultBody struct {
	io.Reader
	buf  *journalBuffer
	once sync.Once
}

func newResultBody(header []byte, res *api.ShardResult, buf *journalBuffer) *resultBody {
	buf.reading.Add(1)
	return &resultBody{Reader: io.MultiReader(bytes.NewReader(header), bytes.NewReader(res.Journal)), buf: buf}
}

// Close tells the buffer that the transport is done with this body.
func (r *resultBody) Close() error {
	r.once.Do(func() { r.buf.reading.Add(-1) })
	return nil
}

// workerServe polls for shards under one registration; it returns when
// the registration dies (coordinator restart, lease loss) or ctx
// cancels, and the caller re-registers.
func workerServe(ctx context.Context, o WorkerOptions, base string, w api.WorkerWelcome) {
	var jbuf *journalBuffer
	for ctx.Err() == nil {
		if err := fpWorkerPoll.Hit(); err != nil {
			o.Logf("poll failpoint: %v", err)
			sleepCtx(ctx, 100*time.Millisecond)
			return
		}
		var sr api.ShardRequest
		code, err := postJSON(ctx, o.Client, base+"/v1/workers/"+w.WorkerID+"/poll", nil, &sr)
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			o.Logf("poll: %v", err)
			sleepCtx(ctx, 250*time.Millisecond)
			return
		case code == http.StatusNoContent:
			continue
		case code == http.StatusNotFound:
			o.Logf("registration expired, re-registering")
			return
		case code != http.StatusOK:
			o.Logf("poll answered %d", code)
			sleepCtx(ctx, 250*time.Millisecond)
			return
		}
		if err := sr.Validate(); err != nil {
			o.Logf("shard request invalid: %v", err)
			continue
		}

		jbuf = jbuf.next()
		res, err := workerRunShard(ctx, o, base, w, sr, &jbuf.Buffer)
		if err != nil {
			// Drop the shard: the lease expires and the coordinator
			// re-queues it (possibly right back to this worker).
			o.Logf("shard %s: %v", sr.ShardID, err)
			continue
		}
		if !workerDeliver(ctx, o, base, w, res, jbuf) {
			return
		}
	}
}

// workerRunShard computes one shard with runShard, its journal into
// jbuf, while a heartbeat goroutine keeps the lease alive.
func workerRunShard(ctx context.Context, o WorkerOptions, base string, w api.WorkerWelcome, sr api.ShardRequest, jbuf *bytes.Buffer) (*api.ShardResult, error) {
	prog := obs.NewProgress()
	// Heartbeats extend the shard lease and report fault-granular
	// progress (mapped from the engine's finer-grained phase percent).
	hbCtx, hbStop := context.WithCancel(ctx)
	defer hbStop()
	go func() {
		every := time.Duration(w.LeaseMS) * time.Millisecond / 3
		if every <= 0 {
			every = time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				snap := prog.Snapshot()
				done := int64(0)
				if snap.Phase == repro.PhaseGenerate && snap.Total > 0 {
					done = int64(float64(len(sr.FaultIDs)) * snap.Percent() / 100)
				}
				hb := api.WorkerHeartbeat{V: api.Version, WorkerID: w.WorkerID, ShardID: sr.ShardID, Done: done}
				_, _ = postJSON(hbCtx, o.Client, base+"/v1/workers/"+w.WorkerID+"/heartbeat", hb, nil)
			}
		}
	}()
	return runShard(ctx, sr, w.WorkerID, prog, jbuf)
}

// runShard computes one shard as the given worker: a fresh system from
// the embedded request, generation restricted to the shard's faults,
// and a sealed journal for the coordinator to stitch, written into the
// empty jbuf; the result's Journal aliases jbuf. Workers and the
// coordinator's no-worker fallback compute shards alike. prog, when
// non-nil, tracks the generation's progress.
func runShard(ctx context.Context, sr api.ShardRequest, workerID string, prog *obs.Progress, jbuf *bytes.Buffer) (*api.ShardResult, error) {
	start := time.Now()
	journal := obs.NewJournal(jbuf)
	tracer := obs.New(journal,
		obs.String("cmd", "atpgd-worker"),
		obs.String("job", sr.JobID),
		obs.String("shard", sr.ShardID),
		obs.String("worker", workerID))

	sys, err := repro.SystemFromRequest(ctx, sr.Request,
		repro.WithTracer(tracer), repro.WithProgress(prog))
	var sols []*repro.Solution
	if err == nil {
		var faults []repro.Fault
		if faults, err = repro.FaultsByID(sys.RequestFaults(), sr.FaultIDs); err == nil {
			sols, err = sys.GenerateShardContext(ctx, sr.ShardID, faults)
		}
	}
	if err != nil {
		tracer.Finish(err)
		_ = journal.Close()
		return nil, err
	}
	tracer.Finish(nil, obs.Any("metrics", repro.WireMetrics(sys.Metrics())))
	if err := journal.Close(); err != nil {
		return nil, err
	}
	return &api.ShardResult{
		V:           api.Version,
		JobID:       sr.JobID,
		ShardID:     sr.ShardID,
		WorkerID:    workerID,
		Solutions:   repro.WireShardSolutions(sols),
		Quarantined: repro.WireQuarantines(sys.Quarantined()),
		Journal:     jbuf.Bytes(),
		ElapsedMS:   time.Since(start).Milliseconds(),
	}, nil
}

// workerDeliver posts a shard result, whose journal lives in jbuf, with
// a short retry. The body is the result's header line followed by the
// journal bytes (api.ShardResult.Header). Reports false when the worker
// must re-register (registration lost).
func workerDeliver(ctx context.Context, o WorkerOptions, base string, w api.WorkerWelcome, res *api.ShardResult, jbuf *journalBuffer) bool {
	if err := fpWorkerPost.Hit(); err != nil {
		// Injected delivery failure: drop the result; the lease reaper
		// re-queues the shard.
		o.Logf("post failpoint: %v", err)
		return true
	}
	header, err := res.Header()
	if err != nil {
		o.Logf("deliver shard %s: %v", res.ShardID, err)
		return true
	}
	n := int64(len(header) + len(res.Journal))
	body := func() (io.ReadCloser, error) { return newResultBody(header, res, jbuf), nil }
	for attempt := 0; attempt < 3; attempt++ {
		code, err := post(ctx, o.Client, base+"/v1/workers/"+w.WorkerID+"/result", n, body, nil)
		switch {
		case ctx.Err() != nil:
			return false
		case err != nil:
			o.Logf("deliver shard %s: %v", res.ShardID, err)
			sleepCtx(ctx, 250*time.Millisecond)
			continue
		case code == http.StatusNotFound:
			o.Logf("registration expired delivering shard %s", res.ShardID)
			return false
		case code == http.StatusGone:
			// Someone else delivered it first (or the job is gone) —
			// redundant work, not an error.
			return true
		case code >= 400:
			o.Logf("deliver shard %s: coordinator answered %d", res.ShardID, code)
			sleepCtx(ctx, 250*time.Millisecond)
			continue
		default:
			return true
		}
	}
	return true
}
