package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/obs/export"
)

// scrape fetches /metrics with the given Accept header.
func scrape(t *testing.T, base, accept string) (*http.Response, []byte) {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/metrics", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// TestPromExposition: after a job runs, the text exposition carries the
// daemon's queue/job histograms and validates with the in-repo parser;
// the JSON default stays a ServerStatus.
func TestPromExposition(t *testing.T) {
	_, hs := newTestServer(t, Options{}, instantExec)
	st := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, st.ID, api.StateSucceeded)

	resp, body := scrape(t, hs.URL, "text/plain")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatalf("cache-control %q", resp.Header.Get("Cache-Control"))
	}
	doc, err := export.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, fam := range []string{"atpgd_queue_wait_seconds", "atpgd_job_duration_seconds"} {
		if doc.Types[fam] != "histogram" {
			t.Errorf("%s: type %q, want histogram", fam, doc.Types[fam])
			continue
		}
		var buckets, count int
		for _, s := range doc.Family(fam) {
			if strings.HasSuffix(s.Name, "_bucket") {
				buckets++
			}
			if strings.HasSuffix(s.Name, "_count") {
				count++
			}
		}
		if buckets == 0 || count != 1 {
			t.Errorf("%s: %d buckets, %d counts", fam, buckets, count)
		}
	}
	var sawQueue, sawJobs bool
	for _, s := range doc.Samples {
		switch s.Name {
		case "atpgd_queue_cap":
			sawQueue = true
		case "atpgd_jobs":
			sawJobs = true
		}
	}
	if !sawQueue || !sawJobs {
		t.Fatalf("gauges missing (queue_cap %v, jobs %v)\n%s", sawQueue, sawJobs, body)
	}

	// The HTTP latency middleware has observed the earlier requests by
	// now; a second scrape must carry the per-route histogram.
	_, body = scrape(t, hs.URL, "text/plain")
	if !bytes.Contains(body, []byte(`atpgd_http_request_duration_seconds_bucket{route="GET /metrics"`)) {
		t.Fatalf("no http latency series for GET /metrics:\n%s", body)
	}
	if _, err := export.ParseProm(bytes.NewReader(body)); err != nil {
		t.Fatalf("second exposition invalid: %v", err)
	}

	// JSON stays the default shape.
	resp, body = scrape(t, hs.URL, "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q", ct)
	}
	if !bytes.Contains(body, []byte(`"queue_cap"`)) {
		t.Fatalf("JSON default lost ServerStatus shape: %s", body)
	}
}

// TestPromEngineSeries: a job executed through a stub that seals an
// engine snapshot surfaces atpg_* series on the daemon exposition.
func TestPromEngineSeries(t *testing.T) {
	s, hs := newTestServer(t, Options{}, func(ctx context.Context, j *Job, resume bool) error {
		return writeFileAtomic(j.paths.Result, []byte("{}\n"))
	})
	snap := api.MetricsSnapshot{
		V:      api.Version,
		Phases: []api.PhaseMetrics{{Name: "optimize", Count: 2, WallNS: 1000}},
		Solver: api.SolverMetrics{Solves: 5},
	}
	s.lastEngine.Store(&snap)
	_, body := scrape(t, hs.URL, "text/plain")
	doc, err := export.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	found := false
	for _, smp := range doc.Samples {
		if smp.Name == "atpg_phase_units_total" && smp.Labels["phase"] == "optimize" && smp.Value == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("engine series missing:\n%s", body)
	}
}

// TestEventsDroppedSurfaced: a hub with no draining subscriber counts
// drops, and both the job status and the server status carry them.
func TestEventsDroppedSurfaced(t *testing.T) {
	release := make(chan struct{})
	_, hs := newTestServer(t, Options{}, func(ctx context.Context, j *Job, resume bool) error {
		// One subscriber with a tiny buffer that never drains.
		_, unsub := j.hub.Subscribe(1)
		defer unsub()
		for i := 0; i < 10; i++ {
			j.hub.Publish("spam", []byte(`{"ts":0,"type":"spam"}`))
		}
		<-release
		return writeFileAtomic(j.paths.Result, []byte("{}\n"))
	})
	st := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, st.ID, api.StateRunning)
	// 10 emits into a 1-buffer channel: ≥ 9 drops, visible while running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if js := getStatus(t, hs.URL, st.ID); js.EventsDropped >= 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job status never reported dropped events")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var sst api.ServerStatus
	resp, err := http.Get(hs.URL + "/v1/server")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(resp, &sst); err != nil {
		t.Fatal(err)
	}
	if sst.EventsDropped < 9 {
		t.Fatalf("server status EventsDropped = %d, want >= 9", sst.EventsDropped)
	}
	_, body := scrape(t, hs.URL, "text/plain")
	if !bytes.Contains(body, []byte("atpgd_sse_events_dropped_total")) {
		t.Fatalf("drop counter missing from exposition:\n%s", body)
	}
	close(release)
	waitState(t, hs.URL, st.ID, api.StateSucceeded)
}

// TestReadyzDrain: /readyz says accepting while serving and 503s the
// moment the drain begins, while /metrics stays reachable.
func TestReadyzDrain(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, hs := newTestServer(t, Options{}, func(ctx context.Context, j *Job, resume bool) error {
		defer once.Do(func() { close(release) })
		<-ctx.Done()
		return ctx.Err()
	})
	st := submit(t, hs.URL, api.JobRequest{V: 1})
	waitState(t, hs.URL, st.ID, api.StateRunning)

	code, body := httpGet(t, hs.URL+"/readyz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"accepting": true`)) {
		t.Fatalf("/readyz while serving: %d %s", code, body)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	<-release
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = httpGet(t, hs.URL+"/readyz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never went unready during drain: %d %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !bytes.Contains(body, []byte(`"accepting": false`)) {
		t.Fatalf("/readyz drain body: %s", body)
	}
	if code, _ := httpGet(t, hs.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics during drain: %d", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// httpGet fetches a URL and returns status and body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// jsonDecode decodes an HTTP response body and closes it.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
