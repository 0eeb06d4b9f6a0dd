package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/obs"
)

// joinRecorder collects the worker_join events a run's journal emitter
// receives, as "id:name/pid" strings in arrival order.
type joinRecorder struct {
	mu    sync.Mutex
	joins []string
}

func (r *joinRecorder) emit(name string, attrs ...obs.Attr) {
	if name != "worker_join" {
		return
	}
	var worker, wname, pid any
	for _, a := range attrs {
		switch a.Key {
		case "worker":
			worker = a.Value
		case "name":
			wname = a.Value
		case "pid":
			pid = a.Value
		}
	}
	r.mu.Lock()
	r.joins = append(r.joins, fmt.Sprintf("%v:%v/%v", worker, wname, pid))
	r.mu.Unlock()
}

func (r *joinRecorder) got() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.joins...)
}

// TestAttachReplaysRegisteredWorkers: workers that registered strictly
// before a job was submitted still appear in its journal, one
// worker_join each, in worker-ID order (w2 before w10).
func TestAttachReplaysRegisteredWorkers(t *testing.T) {
	c := newCoordinator(time.Minute, time.Second)
	for i := 1; i <= 10; i++ {
		c.register(api.WorkerHello{Name: fmt.Sprintf("n%d", i), PID: 100 + i})
	}
	var r joinRecorder
	c.attach("job1", r.emit)
	var want []string
	for i := 1; i <= 10; i++ {
		want = append(want, fmt.Sprintf("w%d:n%d/%d", i, i, 100+i))
	}
	if got := r.got(); !reflect.DeepEqual(got, want) {
		t.Fatalf("worker_join on attach = %v, want %v", got, want)
	}
}

// TestWorkerJoiningMidJob: a worker that registers while a job runs
// reaches that job's journal exactly once, after the replayed fleet; a
// detached job hears nothing more.
func TestWorkerJoiningMidJob(t *testing.T) {
	c := newCoordinator(time.Minute, time.Second)
	c.register(api.WorkerHello{Name: "alpha", PID: 1})
	var r joinRecorder
	c.attach("job1", r.emit)
	c.register(api.WorkerHello{Name: "beta", PID: 2})
	if got, want := r.got(), []string{"w1:alpha/1", "w2:beta/2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("worker_join events = %v, want %v", got, want)
	}
	c.detach("job1")
	c.register(api.WorkerHello{Name: "gamma", PID: 3})
	if got := r.got(); len(got) != 2 {
		t.Fatalf("detached job received %v", got[2:])
	}
}
