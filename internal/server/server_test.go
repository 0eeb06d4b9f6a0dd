package server

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
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/obs"
)

// newTestServer builds a server over a temp data dir with a stubbed
// executor, so lifecycle and HTTP behavior are testable without
// multi-second ATPG runs. The stub still writes a result file and
// drives the hub/journal like the real executor.
func newTestServer(t *testing.T, o Options, exec func(ctx context.Context, j *Job, resume bool) error) (*Server, *httptest.Server) {
	t.Helper()
	if o.DataDir == "" {
		o.DataDir = t.TempDir()
	}
	if o.RatePerSec == 0 {
		o.RatePerSec = -1 // tests hammer from one host; disable by default
	}
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	if exec != nil {
		s.execFn = exec
	}
	s.startWorkers()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

// instantExec is a stub executor that records a result immediately.
func instantExec(ctx context.Context, j *Job, resume bool) error {
	return writeFileAtomic(j.paths.Result, []byte(`{"v":1,"stub":true}`+"\n"))
}

func submit(t *testing.T, base string, req api.JobRequest) api.JobStatus {
	t.Helper()
	st, code := trySubmit(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func trySubmit(t *testing.T, base string, req api.JobRequest) (api.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return api.JobStatus{}, resp.StatusCode
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, base, id string) api.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, base, id string, want api.JobState) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() && st.State != want {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return api.JobStatus{}
}

func TestSubmitRunsToSuccess(t *testing.T) {
	_, hs := newTestServer(t, Options{}, instantExec)
	st := submit(t, hs.URL, api.JobRequest{V: 1})
	if st.State != api.StateQueued && st.State != api.StateRunning && st.State != api.StateSucceeded {
		t.Fatalf("fresh submission state = %s", st.State)
	}
	fin := waitState(t, hs.URL, st.ID, api.StateSucceeded)
	if fin.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", fin.Attempts)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"stub": true`) && !strings.Contains(buf.String(), `"stub":true`) {
		t.Fatalf("result body = %q", buf.String())
	}
}

func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, Options{}, instantExec)
	for name, body := range map[string]string{
		"bad json":     "{",
		"bad version":  `{"v":99}`,
		"bad macro":    `{"v":1,"macro":{"builtin":"nonexistent"}}`,
		"bad box mode": `{"v":1,"options":{"box_mode":"psychic"}}`,
		"unknown keys": `{"v":1,"surprise":true}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestConcurrentSubmissions drives many parallel submissions through a
// multi-worker pool (run under -race in CI).
func TestConcurrentSubmissions(t *testing.T) {
	var mu sync.Mutex
	ran := make(map[string]int)
	exec := func(ctx context.Context, j *Job, resume bool) error {
		mu.Lock()
		ran[j.ID]++
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		return instantExec(ctx, j, resume)
	}
	_, hs := newTestServer(t, Options{QueueCap: 64, Workers: 4}, exec)

	const n = 32
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := submit(t, hs.URL, api.JobRequest{V: 1, Faults: api.FaultSpec{Limit: i%5 + 1}})
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	seen := make(map[string]bool)
	for _, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty job id %q", id)
		}
		seen[id] = true
		waitState(t, hs.URL, id, api.StateSucceeded)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, c := range ran {
		if c != 1 {
			t.Errorf("job %s ran %d times", id, c)
		}
	}
}

func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, j *Job, resume bool) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return instantExec(ctx, j, resume)
	}
	_, hs := newTestServer(t, Options{QueueCap: 2, Workers: 1}, exec)
	defer close(release)

	// One job occupies the worker; fill the queue behind it.
	busy := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, busy.ID, api.StateRunning)
	accepted := 0
	var rejectedAt int
	for i := 0; i < 10; i++ {
		_, code := trySubmit(t, hs.URL, api.JobRequest{V: 1})
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejectedAt = i
			i = 10
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d submissions past the running job, want QueueCap=2 (first 429 at %d)", accepted, rejectedAt)
	}

	// The 429 envelope is a versioned error reply.
	body, _ := json.Marshal(api.JobRequest{V: 1})
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var er api.ErrorReply
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.V != api.Version || er.Error == "" {
		t.Fatalf("error reply = %+v", er)
	}
}

func TestRateLimit429(t *testing.T) {
	_, hs := newTestServer(t, Options{QueueCap: 64, RatePerSec: 1, RateBurst: 3}, instantExec)
	codes := make(map[int]int)
	for i := 0; i < 6; i++ {
		_, code := trySubmit(t, hs.URL, api.JobRequest{V: 1})
		codes[code]++
	}
	if codes[http.StatusAccepted] != 3 || codes[http.StatusTooManyRequests] != 3 {
		t.Fatalf("codes = %v, want 3 accepted / 3 throttled", codes)
	}
}

// TestCancelMidJobSealsJournal covers DELETE of a running job: the
// executor here is the real one driving a journal through a tracer, so
// the sealed journal must validate as a truncated-but-valid
// run_canceled record.
func TestCancelMidJobSealsJournal(t *testing.T) {
	started := make(chan struct{}, 1)
	exec := func(ctx context.Context, j *Job, resume bool) error {
		jf, err := os.Create(j.paths.Journal)
		if err != nil {
			return err
		}
		journal := obs.NewJournal(jf)
		journal.Tee(j.hub.Publish)
		tracer := obs.New(journal, obs.String("cmd", "atpgd"), obs.String("job", j.ID))
		_, span := tracer.Start(ctx, "generate-all")
		started <- struct{}{}
		<-ctx.Done()
		err = fmt.Errorf("walk canceled: %w", ctx.Err())
		span.End()
		tracer.Finish(err)
		journal.Close()
		jf.Close()
		return err
	}
	s, hs := newTestServer(t, Options{}, exec)

	st := submit(t, hs.URL, api.JobRequest{V: 1})
	<-started

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	fin := waitState(t, hs.URL, st.ID, api.StateCanceled)
	if fin.Error == "" {
		t.Fatal("canceled job has no error message")
	}

	// The sealed journal validates: run_canceled terminal, open span
	// tolerated.
	paths, err := s.Store().Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	jst, err := obs.Validate(bufio.NewReader(jf))
	if err != nil {
		t.Fatalf("canceled journal invalid: %v", err)
	}
	if jst.Terminal != obs.TypeRunCanceled {
		t.Fatalf("Terminal = %q, want run_canceled", jst.Terminal)
	}

	// DELETE is idempotent on a terminal job.
	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second DELETE status %d", resp.StatusCode)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, j *Job, resume bool) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return instantExec(ctx, j, resume)
	}
	_, hs := newTestServer(t, Options{QueueCap: 4, Workers: 1}, exec)
	defer close(release)

	busy := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, busy.ID, api.StateRunning)
	queued := submit(t, hs.URL, api.JobRequest{V: 1})

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitState(t, hs.URL, queued.ID, api.StateCanceled)
	if st.Started != nil {
		t.Fatalf("canceled queued job has a start time: %+v", st)
	}
}

func TestEventsSSE(t *testing.T) {
	exec := func(ctx context.Context, j *Job, resume bool) error {
		journal := obs.NewJournal(io.Discard)
		journal.Tee(j.hub.Publish)
		tracer := obs.New(journal, obs.String("job", j.ID))
		tracer.Emit("heartbeat", obs.Int("n", 1))
		tracer.Finish(nil)
		return instantExec(ctx, j, resume)
	}
	_, hs := newTestServer(t, Options{}, exec)
	st := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, st.ID, api.StateSucceeded)

	// Subscribing after completion: the stream opens, delivers the
	// status frame, and ends promptly because the hub is closed.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			events = append(events, strings.TrimPrefix(sc.Text(), "event: "))
		}
	}
	if len(events) < 2 || events[0] != "status" || events[len(events)-1] != "status" {
		t.Fatalf("events = %v, want status frames bracketing the stream", events)
	}
}

// TestEventsSSECarriesJournalLines: a stream subscribed while the job
// runs receives every journal record, in journal order, as the data of
// a frame named by the record type — the journal file's own bytes.
func TestEventsSSECarriesJournalLines(t *testing.T) {
	exec := func(ctx context.Context, j *Job, resume bool) error {
		// Start the run only once the stream below has subscribed.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			j.hub.mu.Lock()
			n := len(j.hub.subs)
			j.hub.mu.Unlock()
			if n > 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("no SSE subscriber after 10s")
			}
		}
		jf, err := os.Create(j.paths.Journal)
		if err != nil {
			return err
		}
		journal := obs.NewJournal(jf)
		journal.Tee(j.hub.Publish)
		tracer := obs.New(journal, obs.String("job", j.ID), obs.F64("delta", 0.1))
		sctx, sp := tracer.Start(ctx, "generate", obs.String("fault", `bridge:"a"<b>&c`))
		tracer.Event(sctx, "impact_step", obs.F64("impact", 1e-7), obs.Int("step", 2))
		tracer.Complete("sim.op", time.Microsecond, obs.I64("stamps", 12))
		sp.End(obs.Bool("ok", true))
		tracer.Finish(nil, obs.Any("metrics", map[string]int{"b": 2, "a": 1}))
		if err := journal.Close(); err != nil {
			return err
		}
		if err := jf.Close(); err != nil {
			return err
		}
		return instantExec(ctx, j, resume)
	}
	s, hs := newTestServer(t, Options{}, exec)
	st := submit(t, hs.URL, api.JobRequest{V: 1})
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types, data []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); {
		case strings.HasPrefix(line, "event: "):
			types = append(types, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		}
	}
	if len(types) < 2 || len(types) != len(data) || types[0] != "status" || types[len(types)-1] != "status" {
		t.Fatalf("frames %v, want status frames bracketing the records", types)
	}
	paths, err := s.Store().Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if got := data[1 : len(data)-1]; !reflect.DeepEqual(got, lines) {
		t.Fatalf("SSE records differ from the journal:\n sse     %q\n journal %q", got, lines)
	}
	for i, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if types[i+1] != ev.Type {
			t.Errorf("frame %d named %q, record type %q", i+1, types[i+1], ev.Type)
		}
	}
}

func TestServerStatusAndHealth(t *testing.T) {
	s, hs := newTestServer(t, Options{QueueCap: 7}, instantExec)
	resp, err := http.Get(hs.URL + "/v1/server")
	if err != nil {
		t.Fatal(err)
	}
	var st api.ServerStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.V != api.Version || st.State != "serving" || st.QueueCap != 7 {
		t.Fatalf("server status = %+v", st)
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	s.draining.Store(true)
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	s.draining.Store(false)
}

func TestUnknownJob404(t *testing.T) {
	_, hs := newTestServer(t, Options{}, instantExec)
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestResultConflictBeforeSuccess(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, j *Job, resume bool) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return instantExec(ctx, j, resume)
	}
	_, hs := newTestServer(t, Options{}, exec)
	defer close(release)
	st := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, st.ID, api.StateRunning)
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: status %d, want 409", resp.StatusCode)
	}
}

// TestDrainInterruptsAndPersists covers the SIGTERM path: Shutdown
// flips to draining, refuses new work with 503, interrupts the running
// job, and persists both it and the queued job as interrupted.
func TestDrainInterruptsAndPersists(t *testing.T) {
	dataDir := t.TempDir()
	started := make(chan struct{}, 1)
	exec := func(ctx context.Context, j *Job, resume bool) error {
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}
	s, hs := newTestServer(t, Options{DataDir: dataDir, QueueCap: 4, Workers: 1}, exec)

	running := submit(t, hs.URL, api.JobRequest{V: 1})
	<-started
	queued := submit(t, hs.URL, api.JobRequest{V: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if _, code := trySubmit(t, hs.URL, api.JobRequest{V: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}

	// Both jobs are persisted as interrupted, ready for resume.
	for _, id := range []string{running.ID, queued.ID} {
		var rec jobRecord
		if err := s.Store().LoadRecord(id, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != api.StateInterrupted {
			t.Fatalf("job %s persisted as %s, want interrupted", id, rec.State)
		}
	}

	// A fresh daemon over the same data dir re-enqueues and finishes
	// both.
	s2, err := newServer(Options{DataDir: dataDir, QueueCap: 4, Workers: 2, RatePerSec: -1})
	if err != nil {
		t.Fatal(err)
	}
	resumed := make(map[string]bool)
	var mu sync.Mutex
	s2.execFn = func(ctx context.Context, j *Job, resume bool) error {
		mu.Lock()
		resumed[j.ID] = resume
		mu.Unlock()
		return instantExec(ctx, j, resume)
	}
	s2.startWorkers()
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	for _, id := range []string{running.ID, queued.ID} {
		fin := waitState(t, hs2.URL, id, api.StateSucceeded)
		if fin.Attempts < 1 {
			t.Fatalf("job %s attempts = %d", id, fin.Attempts)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for id, r := range resumed {
		if !r {
			t.Errorf("job %s re-ran without resume", id)
		}
	}
}
