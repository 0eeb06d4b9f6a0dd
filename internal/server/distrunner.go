package server

// A coordinator's generate step: generateSharded partitions the job's
// unsolved faults into shards, fans them out through the coordinator,
// and merges the returned records into the dictionary-ordered solution
// slice a local run would have produced. Everything else — journal,
// compaction, coverage, the result — is execute's, the same code a
// single-node job runs, so the encoded result is byte-identical to it.
//
// Durability composes with the existing checkpoint machinery: the merge
// run feeds the job's checkpoint as shards land, so a coordinator
// restart reshards only the unsolved remainder, and a single-node
// checkpoint resumes into a distributed run (and vice versa — the
// fingerprint ignores sharding entirely).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro"
	"repro/api"
	"repro/internal/obs"
)

// localWorker is the worker ID under which the coordinator computes
// shards itself once its fleet is gone.
const localWorker = "local"

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

// generateSharded generates the job's faults on the worker fleet and
// returns their solutions in dictionary order, the quarantines the
// shards reported, and — on every path, failures included — the shard
// journals delivered so far, in shard order and offset from epoch, the
// start of the job's journal. Once the fleet has been empty past
// FallbackGrace, the coordinator takes pending shards back and computes
// each one as a worker would, under worker ID "local", so a distributed
// daemon with zero workers degrades to a slower local run instead of
// hanging.
func (s *Server) generateSharded(ctx context.Context, j *Job, sys *repro.System, faults []repro.Fault, tracer *obs.Tracer, prog *obs.Progress, epoch time.Time) (sols []*repro.Solution, quar []api.QuarantineInfo, journals []obs.ShardJournal, err error) {
	gate := &emitGate{tr: tracer}
	s.coord.attach(j.ID, gate.emit)
	var byShard []obs.ShardJournal
	defer func() {
		// Detach from the coordinator and seal the event gate before the
		// caller finishes the tracer: anything the shard machinery emits
		// from here on must not land after the journal's terminal record.
		s.coord.abandon(j.ID)
		s.coord.detach(j.ID)
		gate.seal()
		for _, sj := range byShard {
			if sj.Data != nil {
				journals = append(journals, sj)
			}
		}
	}()

	merge, err := sys.OpenMerge(faults)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			merge.Flush()
		}
	}()
	pending := merge.Pending()

	// Coordinator progress is fault-granular: workers heartbeat their
	// per-shard fault completions and the deltas aggregate here, so SSE
	// subscribers see one unified generate phase across the fleet.
	prog.SetPhase(repro.PhaseGenerate, len(faults))
	if n := len(faults) - len(pending); n > 0 {
		prog.Step(n)
	}

	req := j.Request()
	size := s.opt.ShardSize
	total := (len(pending) + size - 1) / size
	results := make(chan shardDelivery, total)
	byShard = make([]obs.ShardJournal, total)
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

	scav := time.NewTicker(100 * time.Millisecond)
	defer scav.Stop()
	lastAlive := time.Now()
	joined := false

	for merge.Remaining() > 0 {
		select {
		case <-ctx.Done():
			return nil, nil, nil, fmt.Errorf("server: distributed job %s: %w", j.ID, ctx.Err())

		case d := <-results:
			if ferr := fpShardMerge.Hit(); ferr != nil {
				return nil, nil, nil, fmt.Errorf("server: merge shard %s: %w", d.sh.id, ferr)
			}
			for _, ws := range d.res.Solutions {
				if merr := merge.Record(repro.ShardSolutionRecord(ws)); merr != nil {
					return nil, nil, nil, fmt.Errorf("server: merge shard %s: %w", d.sh.id, merr)
				}
			}
			quar = append(quar, d.res.Quarantined...)
			if len(d.res.Journal) > 0 {
				byShard[d.sh.seq] = obs.ShardJournal{
					Shard:    d.sh.id,
					Worker:   d.worker,
					OffsetNS: d.assignedAt.Sub(epoch).Nanoseconds(),
					Data:     d.res.Journal,
				}
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
			if !joined {
				joined = true
				gate.emit("worker_join", obs.String("worker", localWorker),
					obs.String("name", localWorker), obs.Int("pid", os.Getpid()))
			}
			assignedAt := time.Now()
			gate.emit("shard_assign",
				obs.String("shard", sh.id), obs.String("worker", localWorker),
				obs.Int("faults", len(sh.faults)))
			// A fresh journal buffer per shard: its bytes are the
			// result's Journal, which lives until the stitch.
			res, rerr := runShard(ctx, sh.request(), localWorker, nil, new(bytes.Buffer))
			if rerr != nil {
				return nil, nil, nil, rerr
			}
			prog.Step(len(sh.faults))
			gate.emit("shard_done",
				obs.String("shard", sh.id), obs.String("worker", localWorker),
				obs.Int("solutions", len(res.Solutions)))
			// steal took the shard off the queue, so no worker can deliver
			// it: this send fills the shard's own slot in results.
			results <- shardDelivery{sh: sh, res: res, worker: localWorker, assignedAt: assignedAt}
		}
	}

	sols, err = merge.Solutions()
	if err != nil {
		return nil, nil, nil, err
	}
	return sols, quar, nil, nil
}
