package server

// The distributed twin of runner.go: executeSharded runs one job by
// partitioning its fault dictionary into shards, fanning them out
// through the coordinator, and merging worker records back into the
// dictionary-ordered solution slice a local run would have produced.
// Compaction and coverage then run locally over the merged solutions —
// exactly the code path execute takes — so the encoded result is
// byte-identical to a single-node run of the same request.
//
// Durability composes with the existing checkpoint machinery: the merge
// run feeds the job's checkpoint as shards land, so a coordinator
// restart reshards only the unsolved remainder, and a single-node
// checkpoint resumes into a distributed run (and vice versa — the
// fingerprint ignores sharding entirely).

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"context"

	"repro"
	"repro/api"
	"repro/internal/obs"
)

// executeAuto is the execFn of a distributed daemon: jobs run sharded
// when the coordinator exists, locally otherwise.
func (s *Server) executeAuto(ctx context.Context, j *Job, resume bool) error {
	if s.coord != nil {
		return s.executeSharded(ctx, j, resume)
	}
	return s.execute(ctx, j, resume)
}

// emitGate serializes coordinator-side journal events against the seal
// of the job's tracer: shard lifecycle notifications arriving after the
// run finished (a straggler result, a reaped lease) are dropped rather
// than written after the journal's terminal record.
type emitGate struct {
	tr     *obs.Tracer
	mu     sync.RWMutex
	sealed bool
}

func (g *emitGate) emit(name string, attrs ...obs.Attr) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if !g.sealed {
		g.tr.Emit(name, attrs...)
	}
}

func (g *emitGate) seal() {
	g.mu.Lock()
	g.sealed = true
	g.mu.Unlock()
}

// stitchEntry pairs a worker journal with its shard's partition index,
// so stitching order is deterministic regardless of delivery order.
type stitchEntry struct {
	seq int
	sj  obs.ShardJournal
}

// executeSharded runs one job in distributed mode. The coordinator-side
// journal accumulates in memory (teeing its records to the SSE hub as
// usual); at the end the worker journals are stitched into it in shard
// order and the whole thing is written as the job journal.
func (s *Server) executeSharded(ctx context.Context, j *Job, resume bool) (err error) {
	t0 := time.Now()
	var jbuf bytes.Buffer
	journal := obs.NewJournal(&jbuf)

	req := j.Request()
	delta := req.Compact.Delta
	if delta <= 0 {
		delta = repro.DefaultCompactOptions().Delta
	}

	journal.Tee(j.hub.Publish)
	tracer := obs.New(journal,
		obs.String("cmd", "atpgd"),
		obs.String("job", j.ID),
		obs.F64("delta", delta),
		obs.Bool("distributed", true))
	prog := obs.NewProgress()
	j.mu.Lock()
	j.prog = prog
	j.mu.Unlock()

	gate := &emitGate{tr: tracer}
	s.coord.attach(j.ID, gate.emit)

	var stitches []stitchEntry
	var sys *repro.System
	defer func() {
		// Detach from the coordinator and seal the event gate BEFORE
		// finishing the tracer: anything the shard machinery emits from
		// here on must not land after the journal's terminal record.
		s.coord.abandon(j.ID)
		s.coord.detach(j.ID)
		gate.seal()
		s.engineLive.Store(nil)
		if sys != nil {
			final := repro.WireMetrics(sys.Metrics())
			s.lastEngine.Store(&final)
			tracer.Finish(err, obs.Any("metrics", final))
		} else {
			tracer.Finish(err)
		}
		_ = journal.Close()

		// Stitch worker journals into the coordinator's, in shard order.
		// A stitch failure (e.g. a worker shipped a corrupt journal) must
		// not fail the job: fall back to the coordinator journal alone.
		sort.Slice(stitches, func(a, b int) bool { return stitches[a].seq < stitches[b].seq })
		shardJournals := make([]obs.ShardJournal, len(stitches))
		for i, st := range stitches {
			shardJournals[i] = st.sj
		}
		out, serr := obs.Stitch(jbuf.Bytes(), shardJournals)
		if serr != nil {
			fmt.Fprintf(os.Stderr, "atpgd: job %s: journal stitch: %v (keeping coordinator journal)\n", j.ID, serr)
			out = jbuf.Bytes()
		}
		if werr := writeFileAtomic(j.paths.Journal, out); werr != nil && err == nil {
			err = werr
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
	live := func() api.MetricsSnapshot { return repro.WireMetrics(sys.Metrics()) }
	s.engineLive.Store(&live)

	faults := sys.RequestFaults()
	merge, err := sys.OpenMerge(faults)
	if err != nil {
		return err
	}
	pending := merge.Pending()

	// Coordinator progress is fault-granular: workers heartbeat their
	// per-shard fault completions and the deltas aggregate here, so SSE
	// subscribers see one unified generate phase across the fleet.
	prog.SetPhase(repro.PhaseGenerate, len(faults))
	if n := len(faults) - len(pending); n > 0 {
		prog.Step(n)
	}

	size := s.opt.ShardSize
	total := (len(pending) + size - 1) / size
	results := make(chan shardDelivery, total)
	shards := make([]*shard, 0, total)
	for seq := 0; seq < total; seq++ {
		chunk := pending[seq*size : min((seq+1)*size, len(pending))]
		ids := make([]string, len(chunk))
		for i, f := range chunk {
			ids[i] = f.ID()
		}
		shards = append(shards, &shard{
			id:       fmt.Sprintf("%s/s%d", j.ID, seq),
			jobID:    j.ID,
			seq:      seq,
			total:    total,
			faults:   ids,
			req:      req,
			results:  results,
			notify:   gate.emit,
			progress: func(d int) { prog.Step(d) },
		})
	}
	s.coord.enqueue(shards)

	mergeShard := func(sols []api.ShardSolution) error {
		for _, ws := range sols {
			if merr := merge.Record(repro.ShardSolutionRecord(ws)); merr != nil {
				return merr
			}
		}
		return nil
	}

	var workerQuar []api.QuarantineInfo
	// The scavenger ticker drives the no-workers fallback: once the
	// fleet has been empty past FallbackGrace, the coordinator pulls
	// pending shards back and runs them through its own session, so a
	// distributed daemon with zero workers degrades to a slower local
	// run instead of hanging.
	scav := time.NewTicker(100 * time.Millisecond)
	defer scav.Stop()
	lastAlive := time.Now()

	for merge.Remaining() > 0 {
		select {
		case <-ctx.Done():
			merge.Flush()
			return fmt.Errorf("server: distributed job %s: %w", j.ID, ctx.Err())

		case d := <-results:
			if ferr := fpShardMerge.Hit(); ferr != nil {
				merge.Flush()
				return fmt.Errorf("server: merge shard %s: %w", d.sh.id, ferr)
			}
			if merr := mergeShard(d.res.Solutions); merr != nil {
				merge.Flush()
				return fmt.Errorf("server: merge shard %s: %w", d.sh.id, merr)
			}
			workerQuar = append(workerQuar, d.res.Quarantined...)
			if d.res.Journal != "" {
				stitches = append(stitches, stitchEntry{seq: d.sh.seq, sj: obs.ShardJournal{
					Shard:    d.sh.id,
					Worker:   d.worker,
					OffsetNS: d.assignedAt.Sub(t0).Nanoseconds(),
					Data:     []byte(d.res.Journal),
				}})
			}

		case <-scav.C:
			if s.coord.liveWorkers() > 0 {
				lastAlive = time.Now()
				continue
			}
			if time.Since(lastAlive) < s.opt.FallbackGrace {
				continue
			}
			sh := s.coord.steal(j.ID)
			if sh == nil {
				continue
			}
			gate.emit("shard_assign",
				obs.String("shard", sh.id), obs.String("worker", "local"),
				obs.Int("faults", len(sh.faults)))
			fs, ferr := repro.FaultsByID(faults, sh.faults)
			if ferr != nil {
				merge.Flush()
				return ferr
			}
			sols, gerr := sys.GenerateShardContext(ctx, sh.id, fs)
			// The shard run re-phased the progress tracker at its own
			// scale; restore the job-wide fault-granular phase.
			prog.SetPhase(repro.PhaseGenerate, len(faults))
			if gerr != nil {
				merge.Flush()
				return gerr
			}
			if merr := mergeShard(repro.WireShardSolutions(sols)); merr != nil {
				merge.Flush()
				return merr
			}
			gate.emit("shard_done",
				obs.String("shard", sh.id), obs.String("worker", "local"),
				obs.Int("solutions", len(sols)))
			prog.Step(len(faults) - merge.Remaining())
		}
	}

	sols, err := merge.Solutions()
	if err != nil {
		return err
	}
	quar := append(workerQuar, repro.WireQuarantines(sys.Quarantined())...)
	sort.Slice(quar, func(a, b int) bool {
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
