package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/internal/server"
)

// service is a running in-process atpgd — a default single-node daemon
// or a coordinator with its shard workers — behind an httptest server.
type service struct {
	srv    *server.Server
	hs     *httptest.Server
	base   string
	client *http.Client

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// boot starts the workload's daemon over dir and waits until it is
// ready to take jobs: /readyz answers 200 and, for a coordinator, every
// shard worker has registered.
func boot(w workload, dir string) (*service, error) {
	opts := server.Options{DataDir: dir, Workers: w.slots}
	if w.kind == dist {
		opts.Distributed = true
		opts.ShardSize = w.shardSize
	}
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	wctx, cancel := context.WithCancel(context.Background())
	s := &service{srv: srv, hs: hs, base: hs.URL, client: hs.Client(), stopWorkers: cancel}
	for i := 0; i < w.shardWorkers; i++ {
		s.workers.Add(1)
		go func(name string) {
			defer s.workers.Done()
			_ = server.RunWorker(wctx, server.WorkerOptions{
				Coordinator: s.base,
				Name:        name,
				Logf:        func(string, ...any) {},
			})
		}(fmt.Sprintf("w%d", i+1))
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		ready, err := s.ready(w.shardWorkers)
		if err != nil {
			s.close()
			return nil, err
		}
		if ready {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("daemon not ready after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ready reports whether the daemon accepts jobs with workers shard
// workers registered.
func (s *service) ready(workers int) (bool, error) {
	resp, err := s.client.Get(s.base + "/readyz")
	if err != nil {
		return false, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, nil
	}
	if workers == 0 {
		return true, nil
	}
	var st api.ServerStatus
	if err := s.getJSON(context.Background(), "/v1/server", &st); err != nil {
		return false, err
	}
	return st.Workers >= workers, nil
}

// close drains the daemon, stops its shard workers and waits for all of
// them, then closes the listener.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	s.stopWorkers()
	s.workers.Wait()
	s.hs.Close()
}

// serviceJob is the client-side record of one daemon job.
type serviceJob struct {
	id     string
	body   []byte
	status api.JobStatus
	// submit is the POST round trip; sse counts the frames streamed.
	submit time.Duration
	sse    int
	// spans are the client's bench.* spans on the benchmark clock:
	// index 0 is the job root (its end is the caller's to set), 2 is the
	// SSE follow.
	spans []tspan
}

// job runs one request the way examples/service does: POST it, follow
// its SSE stream until the daemon closes it, read the final status and
// fetch the result bytes.
func (s *service) job(ctx context.Context, req api.JobRequest, clock func() int64) (serviceJob, error) {
	var out serviceJob
	out.spans = []tspan{{start: clock(), parent: -1, layer: unattributed}}
	call := func(name string, fn func() error) error {
		sp := tspan{start: clock(), parent: 0, layer: layerOf(name)}
		err := fn()
		sp.end = clock()
		out.spans = append(out.spans, sp)
		return err
	}

	body, err := api.Encode(req)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	var st api.JobStatus
	err = call("bench.http.submit", func() error {
		resp, err := s.post(ctx, "/v1/jobs", body)
		if err != nil {
			return err
		}
		if resp.code != http.StatusAccepted {
			return fmt.Errorf("submit: %s: %s", resp.status, bytes.TrimSpace(resp.body))
		}
		return json.Unmarshal(resp.body, &st)
	})
	out.submit = time.Since(t0)
	if err != nil {
		return out, err
	}
	out.id = st.ID
	if err := call("bench.http.follow", func() error {
		out.sse, err = s.follow(ctx, st.ID)
		return err
	}); err != nil {
		return out, err
	}
	if err := call("bench.http.status", func() error {
		return s.getJSON(ctx, "/v1/jobs/"+st.ID, &out.status)
	}); err != nil {
		return out, err
	}
	if out.status.State != api.StateSucceeded {
		return out, fmt.Errorf("job %s ended %s: %s", st.ID, out.status.State, out.status.Error)
	}
	err = call("bench.http.result", func() error {
		out.body, err = s.get(ctx, "/v1/jobs/"+st.ID+"/result")
		return err
	})
	return out, err
}

// reply is a fully read HTTP response.
type reply struct {
	code   int
	status string
	body   []byte
}

func (s *service) post(ctx context.Context, path string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req)
}

func (s *service) do(req *http.Request) (reply, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{code: resp.StatusCode, status: resp.Status, body: b}, err
}

// get fetches path and fails on any non-200 reply.
func (s *service) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	r, err := s.do(req)
	if err != nil {
		return nil, err
	}
	if r.code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, r.status, bytes.TrimSpace(r.body))
	}
	return r.body, nil
}

func (s *service) getJSON(ctx context.Context, path string, v any) error {
	b, err := s.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// follow reads a job's SSE stream until the daemon closes it (the job
// reached a terminal state) and returns the number of frames.
func (s *service) follow(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events: %s", resp.Status)
	}
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			frames++
		}
	}
	return frames, sc.Err()
}

// journalInfo is what the benchmark reads back from a job's journal
// file after the measurement window.
type journalInfo struct {
	bytes int64
	// hits and misses count the nominal-cache events. Every faulty run
	// looks up its nominal response once, so faulty runs = hits +
	// misses and nominal runs = misses.
	hits, misses int64
	ckptWrites   int64
	// shard lifecycle (coordinator journals).
	requeues      int64
	shardBusy     int64 // Σ worker "shard" span ns
	lastShardDone int64
	// ready is when the job's own System was built: the last box-build
	// span end before any shard was assigned (shard sessions build their
	// boxes later). runEnd is the terminal record's timestamp, the job's
	// execution time on the daemon.
	ready, runEnd int64
	metrics       *api.MetricsSnapshot
	// spans are the journal's spans, relative to the journal's epoch
	// (parents are indices; -1 for top-level spans).
	spans []tspan
}

// record is the subset of a journal line the benchmark reads.
type record struct {
	TS     int64           `json:"ts"`
	Type   string          `json:"type"`
	Name   string          `json:"name"`
	Span   uint64          `json:"span"`
	Parent uint64          `json:"parent"`
	Dur    int64           `json:"dur_ns"`
	Attrs  json.RawMessage `json:"attrs"`
}

// readJournal parses a job journal. withSpans keeps its span intervals
// for the attribution (the layer pass's traced half).
func readJournal(path string, withSpans bool) (journalInfo, error) {
	var info journalInfo
	f, err := os.Open(path)
	if err != nil {
		return info, err
	}
	defer f.Close()
	ids := make(map[uint64]int)
	assigned := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 256<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		info.bytes += int64(len(line)) + 1
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return info, fmt.Errorf("%s: %w", path, err)
		}
		switch r.Type {
		case "event":
			switch r.Name {
			case "cache_hit":
				info.hits++
			case "cache_miss":
				info.misses++
			case "checkpoint_write":
				info.ckptWrites++
			case "shard_assign":
				assigned = true
			case "shard_requeue":
				info.requeues++
			case "shard_done":
				info.lastShardDone = max(info.lastShardDone, r.TS)
			}
		case "span_start":
			if withSpans {
				parent, ok := ids[r.Parent]
				if !ok {
					parent = -1
				}
				ids[r.Span] = len(info.spans)
				info.spans = append(info.spans, tspan{
					start:  r.TS,
					end:    -1,
					layer:  layerOf(r.Name),
					parent: parent,
					retro:  r.Parent == 0 && strings.HasPrefix(r.Name, "sim."),
				})
			}
		case "span_end":
			switch {
			case r.Name == "shard":
				info.shardBusy += r.Dur
			case r.Name == "box-build" && !assigned:
				info.ready = max(info.ready, r.TS)
			}
			if i, ok := ids[r.Span]; ok {
				info.spans[i].end = r.TS
			}
		case "run_end", "run_canceled":
			info.runEnd = r.TS
			var a struct {
				Metrics *api.MetricsSnapshot `json:"metrics"`
			}
			if len(r.Attrs) > 0 && json.Unmarshal(r.Attrs, &a) == nil {
				info.metrics = a.Metrics
			}
		}
	}
	return info, sc.Err()
}

// serviceSpans places a traced daemon job on the benchmark clock: the
// client's spans, the daemon's execution as a "run" span inside the SSE
// follow (its epoch is the job's start time), and the journal's spans
// inside that.
func serviceSpans(client []tspan, info journalInfo, epoch int64) []tspan {
	spans := append([]tspan(nil), client...)
	run := len(spans)
	spans = append(spans, tspan{start: epoch, end: epoch + info.runEnd, layer: layerServer, parent: 2})
	for _, s := range info.spans {
		s.start += epoch
		s.end += epoch
		if s.parent < 0 {
			s.parent = run
		} else {
			s.parent += run + 1
		}
		spans = append(spans, s)
	}
	return spans
}
