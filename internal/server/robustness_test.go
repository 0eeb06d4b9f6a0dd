package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
)

// TestMemoryWatermarkShedsSubmissions drives the memory monitor with a
// stubbed heap probe: above the high watermark the daemon sheds
// submissions with 503 + Retry-After, flips /readyz to not-ready, and
// counts the rejections; once the heap recedes below the low watermark
// it accepts again.
func TestMemoryWatermarkShedsSubmissions(t *testing.T) {
	var heap atomic.Uint64
	heap.Store(100) // well under the watermark

	s, err := newServer(Options{
		DataDir:      t.TempDir(),
		RatePerSec:   -1,
		MemHighWater: 1000,
		MemLowWater:  500,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.execFn = instantExec
	s.memFn = func() uint64 { return heap.Load() }
	s.workers.Add(s.opt.Workers)
	for i := 0; i < s.opt.Workers; i++ {
		go s.workerLoop()
	}
	go s.memLoop(time.Millisecond) // fast sampling for the test
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	waitShedding := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.shedding.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("monitor never flipped shedding to %v", want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Healthy: accepted.
	submit(t, hs.URL, api.JobRequest{V: 1})

	// Spike over the high watermark: shed with a retry hint.
	heap.Store(5000)
	waitShedding(true)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while shedding: %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed reply has no Retry-After header")
	}
	if !strings.Contains(string(body), "memory high watermark") {
		t.Errorf("shed reply body %q does not name the watermark", body)
	}

	// Readiness and status surface the shed state.
	r2, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode == http.StatusOK {
		t.Error("/readyz reports ready while shedding")
	}
	if !strings.Contains(string(rb), `"mem_shedding": true`) {
		t.Errorf("/readyz body %q does not surface mem_shedding", rb)
	}
	st := serverStatus(t, hs.URL)
	if !st.MemShedding || st.MemShedTotal != 1 {
		t.Errorf("status MemShedding=%v MemShedTotal=%d, want true/1", st.MemShedding, st.MemShedTotal)
	}
	_, promBytes := scrape(t, hs.URL, "text/plain")
	prom := string(promBytes)
	if !strings.Contains(prom, "atpgd_memory_shed_total 1") {
		t.Error("/metrics does not count the shed submission")
	}
	if !strings.Contains(prom, "atpgd_memory_shedding 1") {
		t.Error("/metrics gauge does not show shedding")
	}

	// The heap must fall below the LOW watermark before service
	// resumes: 600 is between the marks, still shedding (hysteresis).
	heap.Store(600)
	time.Sleep(20 * time.Millisecond)
	if !s.shedding.Load() {
		t.Error("shedding cleared between the watermarks — hysteresis lost")
	}
	heap.Store(100)
	waitShedding(false)
	submit(t, hs.URL, api.JobRequest{V: 1})
}

func serverStatus(t *testing.T, base string) api.ServerStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/server")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.ServerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRestartSkipsTornJobRecord: a job.json torn by a crash mid-write
// must not prevent the daemon from booting, and must not take healthy
// jobs down with it.
func TestRestartSkipsTornJobRecord(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{DataDir: dir}, instantExec)
	good := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, good.ID, api.StateSucceeded)
	torn := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, torn.ID, api.StateSucceeded)
	s.Kill()
	hs.Close()

	// Tear the second job's record: half the payload, no closing brace.
	rec := filepath.Join(dir, "jobs", torn.ID, "job.json")
	data, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rec, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, hs2 := newTestServer(t, Options{DataDir: dir}, instantExec)
	defer hs2.Close()
	if st := getStatus(t, hs2.URL, good.ID); st.State != api.StateSucceeded {
		t.Errorf("healthy job %s came back as %s", good.ID, st.State)
	}
	resp, err := http.Get(hs2.URL + "/v1/jobs/" + torn.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("torn job status = %d, want 404 (skipped at recovery)", resp.StatusCode)
	}
	// The torn job's files stay on disk for inspection.
	if _, err := os.Stat(rec); err != nil {
		t.Errorf("torn record removed: %v", err)
	}
	_ = s2
}

// TestRestartWithPartialJobData: a data directory with files partially
// deleted (journal gone, result gone, a gutted job directory) must
// never panic the daemon at boot, and every surviving endpoint must
// answer.
func TestRestartWithPartialJobData(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{DataDir: dir}, instantExec)
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, hs.URL, api.JobRequest{V: 1})
		waitState(t, hs.URL, st.ID, api.StateSucceeded)
		ids = append(ids, st.ID)
	}
	s.Kill()
	hs.Close()

	// Job 0: journal and checkpoint deleted (the stub executor never
	// wrote them — removing what exists plus tolerating what doesn't is
	// exactly the partial-deletion shape). Job 1: result deleted.
	// Job 2: everything but the directory itself deleted.
	for _, f := range []string{"journal.jsonl", "ckpt.json"} {
		if err := os.Remove(filepath.Join(dir, "jobs", ids[0], f)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, "jobs", ids[1], "result.json")); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "jobs", ids[2]))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.Remove(filepath.Join(dir, "jobs", ids[2], e.Name())); err != nil {
			t.Fatal(err)
		}
	}

	_, hs2 := newTestServer(t, Options{DataDir: dir}, instantExec)
	defer hs2.Close()

	// Job 0 still reports succeeded and serves its result; its missing
	// journal makes the event stream empty, not fatal.
	if st := getStatus(t, hs2.URL, ids[0]); st.State != api.StateSucceeded {
		t.Errorf("journal-less job state = %s, want succeeded", st.State)
	}
	if b := getBody(t, hs2.URL+"/v1/jobs/"+ids[0]+"/result"); !strings.Contains(b, `"stub":true`) {
		t.Errorf("journal-less job result = %q", b)
	}

	// Job 1's result is gone: the endpoint must answer an error status,
	// not hang or crash.
	resp, err := http.Get(hs2.URL + "/v1/jobs/" + ids[1] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("deleted result served 200")
	}

	// Job 2's gutted directory means no record: recovery skips it.
	resp, err = http.Get(hs2.URL + "/v1/jobs/" + ids[2])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("gutted job status = %d, want 404", resp.StatusCode)
	}

	// The daemon still takes new work.
	st := submit(t, hs2.URL, api.JobRequest{V: 1})
	waitState(t, hs2.URL, st.ID, api.StateSucceeded)
}

// TestBadInlineNetlistFailsJob: an inline netlist the parser rejects
// fails its own job with the parse error — it used to panic the job
// goroutine and take the daemon down — and the daemon runs the next job
// as usual.
func TestBadInlineNetlistFailsJob(t *testing.T) {
	if testing.Short() {
		t.Skip("real ATPG run; skipped under -short")
	}
	_, hs := newTestServer(t, Options{}, nil)
	bad := submit(t, hs.URL, api.JobRequest{
		V:       1,
		Macro:   api.MacroSpec{Netlist: "C1 a 0 0\n"},
		Faults:  api.FaultSpec{Limit: 1},
		Options: api.RunOptions{BoxMode: api.BoxModeSeed},
	})
	st := waitState(t, hs.URL, bad.ID, api.StateFailed)
	if want := "netlist line 1: device C1: value 0 must be positive"; !strings.Contains(st.Error, want) {
		t.Errorf("failed job's error %q does not carry the parse error %q", st.Error, want)
	}
	good := submit(t, hs.URL, api.JobRequest{
		V:       1,
		Macro:   api.MacroSpec{Builtin: api.MacroSimpleIVConverter},
		Faults:  api.FaultSpec{Limit: 1},
		Options: api.RunOptions{BoxMode: api.BoxModeSeed, Workers: 1, OptTol: 0.5},
	})
	waitSucceeded(t, hs.URL, good.ID)
}
