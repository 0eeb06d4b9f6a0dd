package server

// Acceptance tests of distributed mode. The contract under test is the
// one DESIGN.md §15 states: a coordinator + workers run of a request
// produces result bytes identical to a single-node run — including
// with a worker killed mid-shard, with no workers at all (local
// scavenging), and across a coordinator crash/restart (checkpoint-aware
// resharding). All tests run real ATPG on the reduced macro and are
// skipped under -short.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/obs"
)

// distRequest is the shared small-but-real job of the distributed
// tests (same shape as the resume tests).
func distRequest() api.JobRequest { return resumeRequest() }

// waitSucceeded waits with real-ATPG patience (waitState's 10s budget
// fits stub executors, not -race engine runs).
func waitSucceeded(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(4 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == api.StateSucceeded {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want succeeded", id, st.State, st.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s never succeeded", id)
}

// distReference computes (once per test process) the single-node
// result bytes of distRequest — the identity target every distributed
// variant must hit.
var (
	distRefOnce  sync.Once
	distRefBytes []byte
)

func distReference(t *testing.T) []byte {
	t.Helper()
	distRefOnce.Do(func() {
		dir, err := os.MkdirTemp(t.TempDir(), "ref")
		if err != nil {
			return
		}
		s, err := New(Options{DataDir: dir, RatePerSec: -1, CheckpointEvery: time.Millisecond})
		if err != nil {
			return
		}
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		st := submit(t, hs.URL, distRequest())
		waitSucceeded(t, hs.URL, st.ID)
		paths, err := s.Store().Job(st.ID)
		if err != nil {
			return
		}
		distRefBytes, _ = os.ReadFile(paths.Result)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	if len(distRefBytes) == 0 {
		t.Fatal("single-node reference run failed")
	}
	return distRefBytes
}

// distOptions is the coordinator configuration of the tests: two
// faults per shard (so a four-fault job still exercises partitioning
// and merge without paying four cold sessions), and a lease generous
// enough that heartbeat starvation on a loaded single-core -race box
// never fakes a worker death — the worker-death test kills its victim
// explicitly rather than by lease pressure.
func distOptions(dir string) Options {
	return Options{
		DataDir:         dir,
		RatePerSec:      -1,
		CheckpointEvery: time.Millisecond,
		Distributed:     true,
		ShardSize:       2,
		WorkerLease:     15 * time.Second,
		PollWait:        time.Second,
		FallbackGrace:   time.Hour, // scavenging off unless a test wants it
	}
}

// startTestWorker runs one shard worker against base until the
// returned cancel fires (the test's way of killing a worker).
func startTestWorker(t *testing.T, base, name string, client *http.Client) (context.CancelFunc, <-chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = RunWorker(ctx, WorkerOptions{
			Coordinator: base,
			Name:        name,
			Client:      client,
			Logf:        func(format string, args ...any) { t.Logf("worker %s: "+format, append([]any{name}, args...)...) },
		})
	}()
	t.Cleanup(func() { cancel(); <-done })
	return cancel, done
}

// TestDistributedBitIdentical is the tentpole acceptance test: a
// coordinator with two workers produces result bytes identical to the
// single-node run, and the stitched journal validates with shard-tagged
// spans attributed to both workers.
func TestDistributedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real ATPG runs; skipped under -short")
	}
	want := distReference(t)

	s, err := New(distOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	startTestWorker(t, hs.URL, "alpha", nil)
	startTestWorker(t, hs.URL, "beta", nil)

	st := submit(t, hs.URL, distRequest())
	waitSucceeded(t, hs.URL, st.ID)

	paths, err := s.Store().Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(paths.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed result differs from single-node run:\ndist:   %d bytes\nsingle: %d bytes", len(got), len(want))
	}

	// The stitched journal must validate and attribute shard work.
	jf, err := os.Open(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	stats, err := obs.Validate(jf)
	if err != nil {
		t.Fatalf("stitched journal invalid: %v", err)
	}
	if stats.Version != obs.SchemaVersion {
		t.Fatalf("journal version %d, want %d", stats.Version, obs.SchemaVersion)
	}
	raw, err := os.ReadFile(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, wantSub := range []string{`"worker_join"`, `"shard_assign"`, `"shard_done"`, `"shard":"` + st.ID + `/s0"`} {
		if !strings.Contains(text, wantSub) {
			t.Errorf("stitched journal missing %s", wantSub)
		}
	}
	// Two two-fault shards across two workers: scheduling may be
	// lopsided, so only require that at least one worker shows up. The
	// tag closes the attrs of a stitched record.
	if !strings.Contains(text, `"worker":"w1"}`) && !strings.Contains(text, `"worker":"w2"}`) {
		t.Error("stitched journal attributes no spans to any worker")
	}
	if joins := reconcileWorkers(t, raw); joins["w1"]+joins["w2"] != "alphabeta" && joins["w1"]+joins["w2"] != "betaalpha" {
		t.Errorf("worker_join names = %v, want alpha and beta", joins)
	}
	reconcileShards(t, raw)

	workers, _, assigned, _, completed := s.DistStats()
	if workers != 2 {
		t.Errorf("DistStats workers = %d, want 2", workers)
	}
	if assigned < 2 || completed < 2 {
		t.Errorf("DistStats assigned/completed = %d/%d, want >= 2 each", assigned, completed)
	}
}

// TestJournalNamesWorkersByID: a journal names every worker by the ID
// the coordinator minted, and its worker_join alone carries the
// operator-chosen name. The workers here are named "w2" and "w1" and
// register in that order, so each name is the other worker's ID — the
// naming of the CI distributed job. Every worker named on a
// shard-tagged record must have a worker_join, and a shard's
// assignment, delivery and stitched records must name one worker.
func TestJournalNamesWorkersByID(t *testing.T) {
	if testing.Short() {
		t.Skip("real ATPG runs; skipped under -short")
	}
	s, err := New(distOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	for i, name := range []string{"w2", "w1"} {
		startTestWorker(t, hs.URL, name, nil)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if workers, _, _, _, _ := s.DistStats(); workers == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never registered", name)
			}
		}
	}

	st := submit(t, hs.URL, distRequest())
	waitSucceeded(t, hs.URL, st.ID)
	paths, err := s.Store().Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if joins := reconcileWorkers(t, raw); joins["w1"] != "w2" || joins["w2"] != "w1" || len(joins) != 2 {
		t.Fatalf("worker_join ID → name = %v, want map[w1:w2 w2:w1]", joins)
	}
	reconcileShards(t, raw)
	// One name per worker per shard: its shard_assign, its shard_done
	// and the records stitched in from its journal agree (unless a lost
	// lease moved the shard to the other worker).
	byShard := make(map[string]map[string]bool)
	requeued := make(map[string]bool)
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		shard, _ := ev.Attrs["shard"].(string)
		if shard == "" {
			continue
		}
		if byShard[shard] == nil {
			byShard[shard] = make(map[string]bool)
		}
		byShard[shard][fmt.Sprint(ev.Attrs["worker"])] = true
		requeued[shard] = requeued[shard] || ev.Name == "shard_requeue"
	}
	if len(byShard) != 2 {
		t.Fatalf("%d shards in the journal, want 2", len(byShard))
	}
	for shard, workers := range byShard {
		if len(workers) != 1 && !requeued[shard] {
			t.Errorf("shard %s is attributed to workers %v, want one", shard, workers)
		}
	}
}

// journalEvents decodes every record of a journal.
func journalEvents(t *testing.T, journal []byte) []obs.Event {
	t.Helper()
	var evs []obs.Event
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// reconcileWorkers checks a distributed job's journal against the
// reconciliation rule that every worker named on a shard-tagged record
// has a worker_join, and returns the joined workers' names by ID.
func reconcileWorkers(t *testing.T, journal []byte) map[string]string {
	t.Helper()
	evs := journalEvents(t, journal)
	joins := make(map[string]string)
	for _, ev := range evs {
		if ev.Name == "worker_join" {
			id, _ := ev.Attrs["worker"].(string)
			name, _ := ev.Attrs["name"].(string)
			joins[id] = name
		}
	}
	for _, ev := range evs {
		if _, tagged := ev.Attrs["shard"]; !tagged {
			continue
		}
		if id, _ := ev.Attrs["worker"].(string); id == "" || joins[id] == "" {
			t.Errorf("%s %q names worker %v, which has no worker_join", ev.Type, ev.Name, ev.Attrs["worker"])
		}
	}
	return joins
}

// reconcileShards checks that a succeeded distributed job's journal
// holds its shard journals: every shard_assign is closed by a shard_done
// or a shard_requeue of its shard, and every shard_done has exactly one
// stitched "shard" span_start carrying its shard ID, as no other shard
// has. A failed stitch keeps the coordinator journal, which has no
// shard spans, and a shard journal stitched twice or under another
// shard's ID shows here too.
func reconcileShards(t *testing.T, journal []byte) {
	t.Helper()
	open := make(map[string]int) // assignments not closed yet, by shard
	done := make(map[string]int)
	spans := make(map[string]int)
	for _, ev := range journalEvents(t, journal) {
		shard, _ := ev.Attrs["shard"].(string)
		switch {
		case ev.Type == obs.TypeEvent && ev.Name == "shard_assign":
			open[shard]++
		case ev.Type == obs.TypeEvent && (ev.Name == "shard_done" || ev.Name == "shard_requeue"):
			// A result from a requeued shard's first worker closes no
			// assignment: its requeue closed it.
			if open[shard] > 0 {
				open[shard]--
			}
			if ev.Name == "shard_done" {
				done[shard]++
			}
		case ev.Type == obs.TypeSpanStart && ev.Name == "shard":
			spans[shard]++
		}
	}
	for shard, n := range open {
		if n > 0 {
			t.Errorf("shard %s: %d shard_assign closed by no shard_done or shard_requeue", shard, n)
		}
	}
	for shard, n := range done {
		if n != 1 || spans[shard] != 1 {
			t.Errorf("shard %s: %d shard_done and %d stitched shard spans, want 1 and 1", shard, n, spans[shard])
		}
	}
	for shard, n := range spans {
		if done[shard] == 0 {
			t.Errorf("shard %s: %d stitched shard spans without a shard_done", shard, n)
		}
	}
}

// crashingTransport fails every shard-result delivery and kills its
// worker on the first attempt — a deterministic "worker dies between
// computing a shard and delivering it".
type crashingTransport struct {
	kill    context.CancelFunc
	crashed atomic.Bool
}

func (ct *crashingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/result") {
		ct.crashed.Store(true)
		ct.kill()
		return nil, errors.New("worker crashed mid-delivery")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestDistributedWorkerDeathRequeues kills a worker mid-shard and
// requires the lease reaper to re-queue its shard, a surviving worker
// to recompute it, and the final bytes to stay identical.
func TestDistributedWorkerDeathRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("real ATPG runs; skipped under -short")
	}
	want := distReference(t)

	s, err := New(distOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// The victim computes its first shard, then dies delivering it.
	ct := &crashingTransport{}
	cancelVictim, _ := startTestWorker(t, hs.URL, "victim", &http.Client{Transport: ct})
	ct.kill = cancelVictim
	startTestWorker(t, hs.URL, "survivor", nil)

	st := submit(t, hs.URL, distRequest())
	waitSucceeded(t, hs.URL, st.ID)

	if !ct.crashed.Load() {
		t.Log("victim never got a shard (survivor took them all) — requeue not exercised")
	} else {
		_, _, _, requeued, _ := s.DistStats()
		if requeued < 1 {
			t.Errorf("DistStats requeued = %d, want >= 1 after worker death", requeued)
		}
	}

	paths, err := s.Store().Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(paths.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result after worker death differs from single-node run")
	}
	raw, err := os.ReadFile(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Validate(bytes.NewReader(raw)); err != nil {
		t.Fatalf("journal invalid after worker death: %v", err)
	}
	reconcileWorkers(t, raw)
	reconcileShards(t, raw)
}

// TestDistributedScavengeFallback runs a distributed daemon with no
// workers at all: after FallbackGrace the coordinator must pull the
// shards back and run them itself, still byte-identical.
func TestDistributedScavengeFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("real ATPG runs; skipped under -short")
	}
	want := distReference(t)

	opt := distOptions(t.TempDir())
	opt.FallbackGrace = 200 * time.Millisecond
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	st := submit(t, hs.URL, distRequest())
	waitSucceeded(t, hs.URL, st.ID)

	paths, err := s.Store().Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(paths.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scavenged result differs from single-node run")
	}
	raw, err := os.ReadFile(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"worker":"local"`) {
		t.Error("journal does not attribute scavenged shards to the local fallback")
	}
	if _, err := obs.Validate(bytes.NewReader(raw)); err != nil {
		t.Fatalf("journal invalid after scavenging: %v", err)
	}
	if joins := reconcileWorkers(t, raw); joins[localWorker] != localWorker {
		t.Errorf("worker_join names = %v, want the local fallback", joins)
	}
	reconcileShards(t, raw)
}

// TestDistributedCoordinatorRestartReshards crashes the coordinator
// mid-job and restarts it over the same data directory: the merge
// checkpoint must confine resharding to the unsolved remainder and the
// final bytes must match the single-node run.
func TestDistributedCoordinatorRestartReshards(t *testing.T) {
	restartCoordinator(t, true)
}

// TestDistributedRestartScavenges restarts the crashed coordinator
// with no worker at all: the recovered job resumes from the merge
// checkpoint and its fallback computes the remainder, which must not
// trip over the resumed session's checkpoint.
func TestDistributedRestartScavenges(t *testing.T) {
	restartCoordinator(t, false)
}

// restartCoordinator kills a coordinator with one worker once the job's
// checkpoint exists (or the job finished first — then the restart path
// simply serves it), restarts it over the same data directory, with one
// fresh worker or with none and a short FallbackGrace, and requires the
// single-node bytes and a valid, reconciled journal.
func restartCoordinator(t *testing.T, withWorker bool) {
	if testing.Short() {
		t.Skip("real ATPG runs; skipped under -short")
	}
	want := distReference(t)

	dir := t.TempDir()
	s1, err := New(distOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	cancelW1, _ := startTestWorker(t, hs1.URL, "gen1", nil)

	st := submit(t, hs1.URL, distRequest())
	paths, err := s1.Store().Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(4 * time.Minute)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(paths.Checkpoint); err == nil {
			break
		}
		if getStatus(t, hs1.URL, st.ID).State.Terminal() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancelW1()
	s1.Kill()
	hs1.Close()

	opt := distOptions(dir)
	if !withWorker {
		opt.FallbackGrace = 200 * time.Millisecond
	}
	s2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	if withWorker {
		startTestWorker(t, hs2.URL, "gen2", nil)
	}

	waitSucceeded(t, hs2.URL, st.ID)
	got, err := os.ReadFile(paths.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restarted coordinator result differs from single-node run")
	}
	raw, err := os.ReadFile(paths.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Validate(bytes.NewReader(raw)); err != nil {
		t.Fatalf("journal invalid after coordinator restart: %v", err)
	}
	reconcileWorkers(t, raw)
	reconcileShards(t, raw)
}
