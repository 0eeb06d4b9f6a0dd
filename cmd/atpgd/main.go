// Command atpgd is the ATPG job daemon: it serves the versioned job API
// (package api) over HTTP, runs submissions on a bounded worker pool,
// and persists every job's request, checkpoint, journal and result
// under a data directory so a killed daemon resumes incomplete jobs on
// the next start.
//
// SIGTERM (or SIGINT) drains gracefully: new submissions are refused
// with 503, running jobs are canceled — their checkpoints flushed and
// journals sealed — and persisted as interrupted for the next instance
// to resume. A clean drain exits 0.
//
// With -dist the daemon becomes a shard coordinator: each job's fault
// list is partitioned into shards and fanned out to worker processes
// that registered over HTTP, and the merged result is byte-identical
// to a single-node run of the same request. Workers are the same
// binary started with -worker -join; they hold no durable state, so
// killing one mid-shard costs a shard retry, never the job.
//
// Usage:
//
//	atpgd [-listen :8723] [-data DIR] [-queue n] [-jobs n]
//	      [-rate r] [-burst n] [-drain-timeout d]
//	      [-mem-high bytes] [-mem-low bytes] [-failpoints SPEC]
//	      [-dist] [-shard-size n] [-worker-lease d] [-poll-wait d]
//	      [-fallback-grace d]
//	atpgd -worker -join URL [-worker-name NAME] [-failpoints SPEC]
//
// Quick start (single node):
//
//	atpgd -data /var/lib/atpgd &
//	curl -X POST localhost:8723/v1/jobs -d '{"v":1,"faults":{"limit":6},
//	     "options":{"box_mode":"seed"}}'
//	curl localhost:8723/v1/jobs/<id>
//	curl localhost:8723/v1/jobs/<id>/result
//
// Distributed:
//
//	atpgd -dist -data /var/lib/atpgd &
//	atpgd -worker -join http://localhost:8723 -worker-name w1 &
//	atpgd -worker -join http://localhost:8723 -worker-name w2 &
//	curl -X POST localhost:8723/v1/jobs -d '{"v":1,"faults":{"limit":6},
//	     "options":{"box_mode":"seed"}}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/failpoint"
	"repro/internal/server"
)

func main() {
	var (
		listen       = flag.String("listen", ":8723", "HTTP listen address")
		dataDir      = flag.String("data", "atpgd-data", "durable data directory (jobs, checkpoints, journals, results)")
		queueCap     = flag.Int("queue", 16, "submission queue bound; beyond it POST /v1/jobs returns 429")
		jobWorkers   = flag.Int("jobs", 1, "jobs executed concurrently (each job parallelizes internally)")
		rate         = flag.Float64("rate", 5, "per-client submissions per second (< 0: unlimited)")
		burst        = flag.Int("burst", 10, "per-client submission burst")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "maximum time to wait for running jobs to wind down on SIGTERM")
		ckptEvery    = flag.Duration("checkpoint-every", 0, "per-job checkpoint debounce interval (0: 2s default)")
		memHigh      = flag.Uint64("mem-high", 0, "live-heap high watermark in bytes; above it submissions are shed with 503 (0: disabled)")
		memLow       = flag.Uint64("mem-low", 0, "live-heap low watermark in bytes; shedding stops below it (0: 80% of -mem-high)")
		failpoints   = flag.String("failpoints", os.Getenv("ATPGD_FAILPOINTS"), "failpoint spec `site=action[:mod];...` for chaos testing (default $ATPGD_FAILPOINTS)")

		dist          = flag.Bool("dist", false, "coordinate jobs across registered shard workers")
		shardSize     = flag.Int("shard-size", 8, "faults per shard in distributed mode")
		workerLease   = flag.Duration("worker-lease", 10*time.Second, "shard lease; a worker silent this long forfeits its shard")
		pollWait      = flag.Duration("poll-wait", 20*time.Second, "long-poll window of the worker shard poll")
		fallbackGrace = flag.Duration("fallback-grace", 2*time.Second, "how long a job tolerates an empty worker fleet before the coordinator runs shards itself")

		workerMode = flag.Bool("worker", false, "run as a shard worker instead of a daemon")
		join       = flag.String("join", "", "coordinator base URL to join (worker mode, e.g. http://host:8723)")
		workerName = flag.String("worker-name", "", "worker label for metrics and the journal's worker_join record; journal records name the worker by its coordinator-assigned ID (default: that ID)")
	)
	flag.Parse()

	// atpgd takes no positional arguments. Rejecting strays matters
	// because the flag package stops parsing at the first non-flag
	// argument: `atpgd -dist 2 -shard-size 4` would otherwise silently
	// drop -shard-size (-dist is boolean; "2" ends parsing).
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "atpgd: unexpected argument %q (flags after it were ignored; -dist takes no value)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *failpoints != "" {
		if err := failpoint.Apply(*failpoints); err != nil {
			fmt.Fprintln(os.Stderr, "atpgd: -failpoints:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "atpgd: failpoints armed: %s\n", *failpoints)
	}

	if *workerMode {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "atpgd: -worker requires -join URL")
			os.Exit(2)
		}
		if err := runWorker(*join, *workerName); err != nil {
			fmt.Fprintln(os.Stderr, "atpgd:", err)
			os.Exit(1)
		}
		return
	}

	opt := server.Options{
		DataDir:         *dataDir,
		QueueCap:        *queueCap,
		Workers:         *jobWorkers,
		RatePerSec:      *rate,
		RateBurst:       *burst,
		CheckpointEvery: *ckptEvery,
		MemHighWater:    *memHigh,
		MemLowWater:     *memLow,
		Distributed:     *dist,
		ShardSize:       *shardSize,
		WorkerLease:     *workerLease,
		PollWait:        *pollWait,
		FallbackGrace:   *fallbackGrace,
	}
	if err := run(*listen, opt, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "atpgd:", err)
		os.Exit(1)
	}
}

// runWorker runs the shard-worker loop until SIGTERM/SIGINT.
func runWorker(join, name string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("atpgd: worker joining %s\n", join)
	err := server.RunWorker(ctx, server.WorkerOptions{Coordinator: join, Name: name})
	if err == context.Canceled {
		fmt.Println("atpgd: worker stopped")
		return nil
	}
	return err
}

func run(listen string, opt server.Options, drainTimeout time.Duration) error {
	srv, err := server.New(opt)
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:              listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	mode := ""
	if opt.Distributed {
		mode = " (distributed coordinator)"
	}
	fmt.Printf("atpgd: serving on %s, data in %s%s\n", listen, opt.DataDir, mode)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Println("atpgd: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain the job server first (stop accepting, interrupt jobs, flush
	// checkpoints, seal journals), then close the HTTP listener.
	derr := srv.Shutdown(dctx)
	if herr := hs.Shutdown(dctx); derr == nil {
		derr = herr
	}
	if derr != nil {
		return derr
	}
	fmt.Println("atpgd: drained cleanly")
	return nil
}
