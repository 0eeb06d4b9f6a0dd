package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/obs"
)

// jobRun is what one finished job left behind: its result bytes, the
// solver counters and histogram counts of its run_end metrics, and the
// number of per-analysis sim.* spans in its journal.
type jobRun struct {
	result   []byte
	solver   api.SolverMetrics
	hists    map[string]uint64
	simSpans uint64
	status   api.JobStatus
}

// finishedJob waits for job id to succeed and reads what it left behind.
func finishedJob(t *testing.T, s *Server, base, id string) jobRun {
	t.Helper()
	waitSucceeded(t, base, id)
	paths, err := s.Store().Job(id)
	if err != nil {
		t.Fatal(err)
	}
	run := jobRun{hists: map[string]uint64{}, status: getStatus(t, base, id)}
	if run.result, err = os.ReadFile(paths.Result); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	var metrics *api.MetricsSnapshot
	dec := json.NewDecoder(bytes.NewReader(journal))
	for {
		var rec struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			Attrs struct {
				Metrics *api.MetricsSnapshot `json:"metrics"`
			} `json:"attrs"`
		}
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.Type == obs.TypeSpanEnd && strings.HasPrefix(rec.Name, "sim."):
			run.simSpans++
		case rec.Type == obs.TypeRunEnd:
			metrics = rec.Attrs.Metrics
		}
	}
	if metrics == nil {
		t.Fatalf("job %s: journal has no run_end metrics", id)
	}
	run.solver = metrics.Solver
	for _, d := range metrics.Durations {
		run.hists[d.Name] = d.Count
	}
	return run
}

// TestConcurrentJobsIsolated runs two real jobs at once on a two-slot
// daemon: one with a retry policy (and breaker_fallbacks, an accepted
// no-op), one plain. Each
// must report exactly what it reports running alone — result bytes,
// solver counters, histogram counts — and its journal must hold one
// sim.* span per analysis its own histograms counted.
func TestConcurrentJobsIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("real ATPG runs; skipped under -short")
	}
	request := func(retry bool) api.JobRequest {
		req := api.JobRequest{
			V:       1,
			Macro:   api.MacroSpec{Builtin: api.MacroSimpleIVConverter},
			Faults:  api.FaultSpec{Limit: 1},
			Options: api.RunOptions{BoxMode: api.BoxModeSeed, Workers: 1, OptTol: 0.05},
		}
		if retry {
			req.Options.Retries = 2
			req.Options.BreakerFallbacks = 1
		}
		return req
	}
	s, hs := newTestServer(t, Options{Workers: 2}, nil)

	var solo [2]jobRun
	for i, retry := range []bool{true, false} {
		solo[i] = finishedJob(t, s, hs.URL, submit(t, hs.URL, request(retry)).ID)
	}
	ids := [2]string{submit(t, hs.URL, request(true)).ID, submit(t, hs.URL, request(false)).ID}
	var both [2]jobRun
	for i, id := range ids {
		both[i] = finishedJob(t, s, hs.URL, id)
	}
	a, b := both[0].status, both[1].status
	if !a.Started.Before(*b.Finished) || !b.Started.Before(*a.Finished) {
		t.Fatalf("jobs did not overlap: %v–%v and %v–%v", a.Started, a.Finished, b.Started, b.Finished)
	}

	for i, name := range []string{"retry job", "plain job"} {
		got, want := both[i], solo[i]
		if !bytes.Equal(got.result, want.result) {
			t.Errorf("%s: result bytes differ from its solo run", name)
		}
		if got.solver != want.solver {
			t.Errorf("%s: solver counters %+v, solo %+v", name, got.solver, want.solver)
		}
		if len(got.hists) != len(want.hists) {
			t.Errorf("%s: histograms %v, solo %v", name, got.hists, want.hists)
		}
		for h, n := range want.hists {
			if got.hists[h] != n {
				t.Errorf("%s: histogram %s counts %d, solo %d", name, h, got.hists[h], n)
			}
		}
		for _, run := range []jobRun{got, want} {
			var analyses uint64
			for h, n := range run.hists {
				if strings.HasPrefix(h, "sim.") && h != "sim.newton_iters" {
					analyses += n
				}
			}
			if analyses == 0 || run.simSpans != analyses || run.hists["sim.newton_iters"] != analyses {
				t.Errorf("%s: %d sim.* spans, %d analyses in the wall-time histograms, %d in sim.newton_iters",
					name, run.simSpans, analyses, run.hists["sim.newton_iters"])
			}
		}
	}
}
