package server

// Tests of the shard result body a worker posts: the result's header
// line, a newline, then the shard journal's bytes verbatim
// (api.ShardResult.Header, api.ParseShardResult).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/obs"
)

// resultServer starts a coordinator with one registered worker and no
// jobs; assignShard hands that worker shards whose results the test
// posts.
func resultServer(t *testing.T) (*Server, *httptest.Server, api.WorkerWelcome) {
	t.Helper()
	s, hs := newTestServer(t, Options{
		Distributed:   true,
		WorkerLease:   time.Minute,
		PollWait:      time.Second,
		FallbackGrace: time.Hour,
	}, nil)
	return s, hs, s.coord.register(api.WorkerHello{V: api.Version, Name: "tester"})
}

// assignShard leases a new one-fault shard of job "job" to the worker
// and returns the channel its accepted result arrives on.
func assignShard(t *testing.T, s *Server, workerID, id string) <-chan shardDelivery {
	t.Helper()
	results := make(chan shardDelivery, 1)
	s.coord.enqueue([]*shard{{
		id: id, jobID: "job", total: 1, faults: []string{"f"}, results: results,
		notify: func(string, ...obs.Attr) {}, progress: func(int) {},
	}})
	if sh, known := s.coord.assign(workerID); !known || sh == nil || sh.id != id {
		t.Fatalf("assign to %s: got %v (known %v), want shard %s", workerID, sh, known, id)
	}
	return results
}

// testResult is a valid result of shard id carrying journal.
func testResult(workerID, id string, journal []byte) *api.ShardResult {
	return &api.ShardResult{
		V: api.Version, JobID: "job", ShardID: id, WorkerID: workerID,
		Solutions: []api.ShardSolution{{FaultID: "f", ConfigIdx: 1, Params: []float64{0.5}, Sensitivity: 0.25, CriticalImpact: 1e3, Evals: 9, ImpactIters: 2}},
		Journal:   journal,
		ElapsedMS: 7,
	}
}

// testWorker is the WorkerOptions of a worker posting to base.
func testWorker(t *testing.T, base string) WorkerOptions {
	return WorkerOptions{
		Coordinator: base,
		Client:      &http.Client{},
		Logf:        func(format string, args ...any) { t.Logf("worker: "+format, args...) },
	}
}

// tripwire is a request body that must never be read.
type tripwire struct{ read bool }

func (r *tripwire) Read([]byte) (int, error) { r.read = true; return 0, io.EOF }

func TestWorkerResultBody(t *testing.T) {
	s, hs, w := resultServer(t)
	url := hs.URL + "/v1/workers/" + w.WorkerID + "/result"
	postRaw := func(t *testing.T, body string) (int, api.ErrorReply) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply api.ErrorReply
		if resp.StatusCode >= 400 {
			if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, reply
	}
	// direct serves a request whose body is a tripwire and reports
	// whether the handler read it.
	direct := func(t *testing.T, path string, contentLength int64) (int, bool) {
		t.Helper()
		body := &tripwire{}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code, body.read
	}

	t.Run("journal arrives byte for byte", func(t *testing.T) {
		journal := []byte(strings.Join([]string{
			`{"ts":1,"type":"event","name":"q\"uote","attrs":{"k":"a \"quoted\" value"}}`,
			`back\slash \\ \n A`,
			`<&> stay raw`,
			"line\u2028separator\u2029",
			strings.Repeat("0123456789", 10<<10),
		}, "\n") + "\n")
		results := assignShard(t, s, w.WorkerID, "job/s0")
		jbuf := new(journalBuffer)
		jbuf.Write(journal)
		if !workerDeliver(context.Background(), testWorker(t, hs.URL), hs.URL, w, testResult(w.WorkerID, "job/s0", jbuf.Bytes()), jbuf) {
			t.Fatal("delivery lost the registration")
		}
		d := <-results
		if !bytes.Equal(d.res.Journal, journal) {
			t.Fatalf("delivered journal (%d bytes) differs from the posted one (%d bytes)", len(d.res.Journal), len(journal))
		}
		if d.res.ShardID != "job/s0" || len(d.res.Solutions) != 1 || d.res.ElapsedMS != 7 {
			t.Fatalf("delivered header %+v", d.res)
		}
	})

	t.Run("journal inside the header is refused", func(t *testing.T) {
		assignShard(t, s, w.WorkerID, "job/s1")
		code, reply := postRaw(t, `{"v":1,"job_id":"job","shard_id":"job/s1","worker_id":"`+w.WorkerID+`","solutions":[],"journal":"{}"}`+"\n")
		if code != http.StatusBadRequest || !strings.Contains(reply.Error, `unknown field "journal"`) {
			t.Fatalf("got %d %q, want 400 naming the journal field", code, reply.Error)
		}
	})

	t.Run("header without newline has no journal", func(t *testing.T) {
		results := assignShard(t, s, w.WorkerID, "job/s2")
		h, err := testResult(w.WorkerID, "job/s2", nil).Header()
		if err != nil {
			t.Fatal(err)
		}
		if code, reply := postRaw(t, string(bytes.TrimSuffix(h, []byte("\n")))); code != http.StatusNoContent {
			t.Fatalf("got %d %q, want 204", code, reply.Error)
		}
		if d := <-results; d.res.Journal != nil || d.res.ShardID != "job/s2" {
			t.Fatalf("delivered shard %s with journal %q, want job/s2 without one", d.res.ShardID, d.res.Journal)
		}
	})

	t.Run("oversized body is refused unread", func(t *testing.T) {
		code, read := direct(t, "/v1/workers/"+w.WorkerID+"/result", maxWorkerBody+1)
		if code != http.StatusBadRequest || read {
			t.Fatalf("got %d (body read: %v), want 400 without reading", code, read)
		}
	})

	t.Run("short body is refused", func(t *testing.T) {
		assignShard(t, s, w.WorkerID, "job/s3")
		h, err := testResult(w.WorkerID, "job/s3", []byte("{}\n")).Header()
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", strings.TrimPrefix(hs.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/workers/%s/result HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", w.WorkerID, len(h)+100, h)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("got %d, want 400", resp.StatusCode)
		}
	})

	t.Run("unknown worker", func(t *testing.T) {
		code, read := direct(t, "/v1/workers/w99/result", 100)
		if code != http.StatusNotFound || read {
			t.Fatalf("got %d (body read: %v), want 404 without reading", code, read)
		}
	})
}

// TestWorkerDeliverAllocs guards the cost of moving a shard journal from
// a worker to its coordinator: ten deliveries of a 1 MiB journal through
// workerDeliver, counted from the post to the receive of the accepted
// result, may allocate at most 2 MiB each. The coordinator's one read
// buffer is 1 MiB of that; a journal encoded into the result's JSON
// costs about 15 MiB.
func TestWorkerDeliverAllocs(t *testing.T) {
	s, hs, w := resultServer(t)
	jbuf := new(journalBuffer)
	journal := obs.NewJournal(jbuf)
	tr := obs.New(journal, obs.String("cmd", "atpgd-worker"), obs.String("shard", "job/s0"))
	for i := 0; jbuf.Len() < 1<<20; i++ {
		_, sp := tr.Start(context.Background(), "optimize", obs.String("fault", fmt.Sprintf("bridge:N%d-Out1", i)), obs.Int("config", i%5))
		tr.Emit("impact_step", obs.String("fault", "pinhole:M5"), obs.F64("impact", 1e3*float64(i)), obs.F64("sf", 0.125), obs.String("dir", "relax"))
		sp.End(obs.Int("evals", 40+i%7), obs.F64("best", -0.42))
	}
	tr.Finish(nil)
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	o := testWorker(t, hs.URL)

	const deliveries = 10
	var total uint64
	for i := 0; i < deliveries; i++ {
		id := fmt.Sprintf("job/s%d", i)
		results := assignShard(t, s, w.WorkerID, id)
		res := testResult(w.WorkerID, id, jbuf.Bytes())
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ok := workerDeliver(context.Background(), o, hs.URL, w, res, jbuf)
		d := <-results
		runtime.ReadMemStats(&after)
		if !ok || !bytes.Equal(d.res.Journal, jbuf.Bytes()) {
			t.Fatalf("delivery %d: ok %v, journal %d of %d bytes", i, ok, len(d.res.Journal), jbuf.Len())
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	per := float64(total) / deliveries / (1 << 20)
	t.Logf("%.2f MiB allocated per delivery of a %.2f MiB journal", per, float64(jbuf.Len())/(1<<20))
	if per > 2 {
		t.Fatalf("%.2f MiB allocated per delivery, want at most 2", per)
	}
}

// TestJournalBufferReuse: a worker's journal buffer is handed to the
// next shard only once the transport has closed every result body that
// reads it; until then the next shard gets a fresh buffer.
func TestJournalBufferReuse(t *testing.T) {
	var jbuf *journalBuffer
	jbuf = jbuf.next()
	jbuf.WriteString("{}\n")
	res := testResult("w1", "job/s0", jbuf.Bytes())
	first := newResultBody(nil, res, jbuf)
	retry := newResultBody(nil, res, jbuf)
	if next := jbuf.next(); next == jbuf {
		t.Fatal("buffer reused while two posted bodies read it")
	}
	first.Close()
	first.Close()
	if next := jbuf.next(); next == jbuf {
		t.Fatal("buffer reused while a retried body reads it")
	}
	retry.Close()
	if next := jbuf.next(); next != jbuf || next.Len() != 0 {
		t.Fatalf("closed buffer not reused empty (reused %v, %d bytes)", next == jbuf, next.Len())
	}
}
