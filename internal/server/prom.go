package server

// The daemon's Prometheus surface: the latency middleware feeding the
// per-route HTTP histograms, and the text exposition combining the
// atpgd_* server series with the atpg_* engine series of the running
// (or last finished) job.

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/api"
	"repro/internal/obs/export"
)

// timed is the HTTP latency middleware: every request records its wall
// time into the histogram of its route class. SSE streams ("events")
// are included — their durations are connection lifetimes, which the
// route label keeps out of the request-latency series.
func (s *Server) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		s.httpLat.Observe(routeClass(r), int64(time.Since(t0)))
	})
}

// routeClass maps a request onto a bounded label set: path parameters
// collapse to {id} so per-job URLs don't mint unbounded series, and
// unknown paths share one bucket. (Classification is by prefix because
// the mux match isn't observable from middleware on this Go version.)
func routeClass(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/jobs":
		return r.Method + " /v1/jobs"
	case strings.HasPrefix(p, "/v1/jobs/"):
		rest := strings.TrimPrefix(p, "/v1/jobs/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch rest[i:] {
			case "/result", "/events":
				return r.Method + " /v1/jobs/{id}" + rest[i:]
			}
			return r.Method + " other"
		}
		return r.Method + " /v1/jobs/{id}"
	case p == "/v1/workers":
		return r.Method + " /v1/workers"
	case strings.HasPrefix(p, "/v1/workers/"):
		rest := strings.TrimPrefix(p, "/v1/workers/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch rest[i:] {
			case "/poll", "/heartbeat", "/result":
				return r.Method + " /v1/workers/{id}" + rest[i:]
			}
		}
		return r.Method + " other"
	case p == "/v1/server", p == "/metrics", p == "/progress",
		p == "/healthz", p == "/readyz", p == "/":
		return r.Method + " " + p
	case strings.HasPrefix(p, "/debug/pprof/"):
		return r.Method + " /debug/pprof/*"
	default:
		return r.Method + " other"
	}
}

// writeProm renders the daemon's text exposition (format 0.0.4): queue
// and lifecycle gauges, the SSE drop counter, the queue-wait / job-
// duration / HTTP-latency histograms, and the engine series of the
// running job (or, when idle, of the last finished one).
func (s *Server) writeProm(w io.Writer) {
	p := &export.PromText{}
	st := s.status()
	p.Gauge("atpgd_uptime_seconds", "Daemon uptime.", nil, float64(st.UptimeMS)/1e3)
	p.Gauge("atpgd_queue_depth", "Jobs waiting in the submission queue.", nil, float64(st.QueueDepth))
	p.Gauge("atpgd_queue_cap", "Submission queue capacity.", nil, float64(st.QueueCap))
	draining := 0.0
	if st.State == "draining" {
		draining = 1
	}
	p.Gauge("atpgd_draining", "1 while the daemon drains (readyz 503).", nil, draining)
	states := make([]string, 0, len(st.Jobs))
	for state := range st.Jobs {
		states = append(states, string(state))
	}
	sort.Strings(states)
	for _, state := range states {
		p.Gauge("atpgd_jobs", "Jobs per lifecycle state.",
			export.PromLabels{{"state", state}}, float64(st.Jobs[api.JobState(state)]))
	}
	p.Counter("atpgd_sse_events_dropped_total", "SSE events lost to slow subscribers across all jobs.",
		nil, float64(st.EventsDropped))
	p.Counter("atpgd_memory_shed_total", "Submissions rejected by the memory watermark monitor.",
		nil, float64(st.MemShedTotal))
	shedding := 0.0
	if st.MemShedding {
		shedding = 1
	}
	p.Gauge("atpgd_memory_shedding", "1 while the heap is over the high watermark and submissions are shed.",
		nil, shedding)
	if s.opt.MemHighWater > 0 {
		p.Gauge("atpgd_heap_bytes", "Live heap as last sampled by the memory monitor.",
			nil, float64(s.heapBytes.Load()))
	}
	if s.coord != nil {
		snap := s.coord.snapshot()
		p.Gauge("atpgd_workers", "Registered shard workers.", nil, float64(len(snap.Workers)))
		p.Gauge("atpgd_shards_pending", "Shards queued for assignment.", nil, float64(snap.Pending))
		p.Counter("atpgd_shards_assigned_total", "Shard assignments handed to workers (retries included).",
			nil, float64(snap.Assigned))
		p.Counter("atpgd_shards_requeued_total", "Shards re-queued after lease expiry or worker loss.",
			nil, float64(snap.Requeued))
		p.Counter("atpgd_shards_completed_total", "Shard results accepted and merged.",
			nil, float64(snap.Completed))
		sort.Slice(snap.Workers, func(a, b int) bool { return snap.Workers[a].Name < snap.Workers[b].Name })
		for _, w := range snap.Workers {
			p.Counter("atpgd_worker_shards_completed_total", "Shards delivered per registered worker.",
				export.PromLabels{{"worker", w.Name}}, float64(w.Completed))
		}
	}
	if qs := s.queueWait.Snapshot(); qs.Count > 0 {
		p.Histogram("atpgd_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.",
			nil, repro.WireHistogram(qs), 1e-9)
	}
	if js := s.jobDur.Snapshot(); js.Count > 0 {
		p.Histogram("atpgd_job_duration_seconds", "Wall time of job execution attempts.",
			nil, repro.WireHistogram(js), 1e-9)
	}
	for _, h := range s.httpLat.Snapshot() {
		if h.Count == 0 {
			continue
		}
		p.Histogram("atpgd_http_request_duration_seconds", "HTTP request latency per route class.",
			export.PromLabels{{"route", h.Name}}, repro.WireHistogram(h.Snapshot), 1e-9)
	}
	if fn := s.engineLive.Load(); fn != nil && *fn != nil {
		export.PromFromMetrics(p, (*fn)())
	} else if last := s.lastEngine.Load(); last != nil {
		export.PromFromMetrics(p, *last)
	}
	_, _ = p.WriteTo(w)
}
