package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/api"
	"repro/internal/obs"
)

// execute runs one job end to end: build the system from its wire
// request, generate, compact, fault-simulate, and persist the encoded
// result. It is the server-side twin of cmd/atpg's run() — both paths
// construct the session via SystemFromRequest and encode the outcome
// via WireResult + api.Encode, which is what makes a server job's
// result byte-identical to the equivalent CLI run's. On a coordinator
// only the generate step differs (generateSharded), and the shard
// journals it collects are stitched into the sealed job journal, also
// after a cancel or a failure.
//
// The journal is recreated per attempt: a resumed job writes a fresh,
// complete journal (with a resume event from the core) rather than
// appending a second run_start to the interrupted one.
func (s *Server) execute(ctx context.Context, j *Job, resume bool) (err error) {
	jf, ferr := os.Create(j.paths.Journal)
	if ferr != nil {
		return fmt.Errorf("server: job %s journal: %w", j.ID, ferr)
	}
	journal := obs.NewJournal(jf)
	var shards []obs.ShardJournal
	defer func() {
		_ = journal.Close()
		if cerr := jf.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if len(shards) > 0 {
			if serr := stitchJournal(j, shards); serr != nil && err == nil {
				err = serr
			}
		}
	}()

	req := j.Request()
	delta := req.Compact.Delta
	if delta <= 0 {
		delta = repro.DefaultCompactOptions().Delta
	}

	journal.Tee(j.hub.Publish)
	attrs := []obs.Attr{obs.String("cmd", "atpgd"), obs.String("job", j.ID), obs.F64("delta", delta)}
	if s.coord != nil {
		attrs = append(attrs, obs.Bool("distributed", true))
	}
	epoch := time.Now()
	tracer := obs.New(journal, attrs...)
	prog := obs.NewProgress()
	j.mu.Lock()
	j.prog = prog
	j.mu.Unlock()

	var sys *repro.System
	// Seal the journal on every exit: run_canceled when the error wraps a
	// context cancellation (DELETE or drain), run_end with the final
	// metrics snapshot otherwise. The same final snapshot becomes the
	// daemon's "last job" engine series on the Prometheus exposition.
	defer func() {
		s.engineLive.Store(nil)
		if sys != nil {
			final := repro.WireMetrics(sys.Metrics())
			s.lastEngine.Store(&final)
			tracer.Finish(err, obs.Any("metrics", final))
		} else {
			tracer.Finish(err)
		}
	}()

	sys, err = repro.SystemFromRequest(ctx, req,
		repro.WithTracer(tracer),
		repro.WithProgress(prog),
		repro.WithCheckpoint(j.paths.Checkpoint, s.opt.CheckpointEvery, resume),
	)
	if err != nil {
		return err
	}
	// While the job runs, /metrics scrapes see its live engine series.
	live := func() api.MetricsSnapshot { return repro.WireMetrics(sys.Metrics()) }
	s.engineLive.Store(&live)

	faults := sys.RequestFaults()
	var sols []*repro.Solution
	var quar []api.QuarantineInfo
	if s.coord == nil {
		sols, err = sys.GenerateAllContext(ctx, faults)
	} else {
		sols, quar, shards, err = s.generateSharded(ctx, j, sys, faults, tracer, prog, epoch)
	}
	if err != nil {
		return err
	}
	quar = append(quar, repro.WireQuarantines(sys.Quarantined())...)
	sort.SliceStable(quar, func(a, b int) bool {
		if quar[a].FaultID != quar[b].FaultID {
			return quar[a].FaultID < quar[b].FaultID
		}
		return quar[a].Config < quar[b].Config
	})
	j.mu.Lock()
	j.verdicts = repro.WireVerdicts(sols)
	j.quarantined = quar
	j.mu.Unlock()

	copt := repro.DefaultCompactOptions()
	copt.Delta = delta
	cts, err := sys.CompactContext(ctx, sols, copt)
	if err != nil {
		return err
	}
	cov, err := sys.CoverageContext(ctx, repro.TestsOfCompact(cts), faults)
	if err != nil {
		return err
	}

	out, err := api.Encode(repro.WireResult(sys, faults, sols, cts, cov, copt.Delta))
	if err != nil {
		return err
	}
	return writeFileAtomic(j.paths.Result, out)
}

// stitchJournal folds the shard journals, in shard order, into the
// job's sealed journal on disk. A stitch failure (e.g. a worker shipped
// a corrupt journal) must not fail the job: the coordinator journal
// stays as it is.
func stitchJournal(j *Job, shards []obs.ShardJournal) error {
	coord, err := os.ReadFile(j.paths.Journal)
	if err != nil {
		return err
	}
	out, err := obs.Stitch(coord, shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atpgd: job %s: journal stitch: %v (keeping coordinator journal)\n", j.ID, err)
		return nil
	}
	return writeFileAtomic(j.paths.Journal, out)
}

// runJob drives one dequeued job through its lifecycle: state
// transitions, persistence, outcome classification, and hub teardown.
func (s *Server) runJob(base context.Context, j *Job) {
	ctx, cancel := context.WithCancel(base)
	defer cancel()

	j.mu.Lock()
	if j.state != api.StateQueued {
		// Canceled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	j.state = api.StateRunning
	now := time.Now().UTC()
	j.started = &now
	j.finished = nil
	j.attempts++
	resume := j.resume || j.attempts > 1
	j.cancel = cancel
	if !j.enqueued.IsZero() {
		s.queueWait.RecordDuration(time.Since(j.enqueued))
	}
	j.mu.Unlock()
	s.saveJob(j)

	t0 := time.Now()
	err := s.execFn(ctx, j, resume)
	s.jobDur.RecordDuration(time.Since(t0))

	j.mu.Lock()
	fin := time.Now().UTC()
	j.finished = &fin
	switch {
	case err == nil:
		j.state = api.StateSucceeded
	case j.userCanceled:
		j.state = api.StateCanceled
		j.errMsg = "canceled by client"
	case canceled(err) && s.draining.Load():
		// Drain interrupted the run mid-flight: the checkpoint holds the
		// completed faults, the journal is sealed as run_canceled, and the
		// job resumes on the next daemon start.
		j.state = api.StateInterrupted
		j.finished = nil
		j.resume = true
	default:
		j.state = api.StateFailed
		j.errMsg = err.Error()
	}
	j.prog = nil
	j.cancel = nil
	j.mu.Unlock()
	s.saveJob(j)
	j.hub.Close()
}

// canceled reports whether err stems from context cancellation at any
// layer (engine sentinel or raw context errors).
func canceled(err error) bool {
	return errors.Is(err, repro.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// writeFileAtomic writes data via temp file + rename, so readers of the
// result endpoint never observe a half-written file and the bytes on
// disk are exactly data (the byte-identity contract of api.Encode).
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
