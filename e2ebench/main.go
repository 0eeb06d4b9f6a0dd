// Command e2ebench is the repository's end-to-end benchmark. One
// invocation runs one workload — a closed loop of real ATPG jobs driven
// through the public entry points — for a fixed wall-clock window,
// verifies every job's result bytes against a pin, and prints one JSON
// line with the metrics BENCHMARK.json names:
//
//	bash e2ebench/run.sh --workload dc55 --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off, timings
// at reference speed (probe.go). --trace 1 is the layer pass: the same
// workload with one client, half the window untraced and half traced,
// turned into per-layer counters, exclusive times and kernel rows. --pin
// recomputes pins.json from single-node reference runs (and checks the
// paper-scale 55 × 5 run against EXPERIMENTS.md). README.md describes
// the workloads, the metrics and their bounds.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke swaps every workload's job shapes for the package test's
	// seconds-scale ones (set only by the test).
	smoke bool
	// scratch holds daemon data directories for the length of the run.
	scratch string
	// log receives the human-readable report (the JSON line goes to
	// stdout).
	log io.Writer
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o := options{log: os.Stderr}
	var traceFlag int
	pin := flag.Bool("pin", false, "recompute the result pins from single-node reference runs, write them to -pins and exit")
	pinsPath := flag.String("pins", filepath.Join("e2ebench", "pins.json"), "pin file written by -pin")
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: picks the job order and, for in-process jobs, the fault order")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement window; jobs started inside it run to completion")
	flag.IntVar(&traceFlag, "trace", 0, "1: print the per-layer metrics of a traced pass instead of the end-to-end metrics")
	flag.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "e2ebench"), "directory for daemon data directories")
	flag.Parse()
	o.trace = traceFlag == 1

	// Every run must end well inside three minutes, even if a job hangs:
	// the context cancels in-flight work first, the hard stop guarantees
	// the exit.
	limit := time.Duration(o.seconds*float64(time.Second)) + 120*time.Second
	if *pin {
		limit = 20 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	hard := time.AfterFunc(limit+20*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded its time limit")
		os.Exit(2)
	})
	defer hard.Stop()

	if *pin {
		if err := writePins(ctx, o, *pinsPath); err != nil {
			fail(err)
		}
		return
	}
	rep, err := run(ctx, o)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// run executes one workload pass and assembles its report.
func run(ctx context.Context, o options) (report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return report{}, errors.New("-seconds must be positive")
	}
	pins, err := loadPins()
	if err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(mkdirAll(o.scratch), w.name+"-")
	if err != nil {
		return report{}, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)

	b := &bench{o: o, w: w, pins: pins, dir: dir, epoch: time.Now()}
	b.probe = startProbe(b.now)
	defer b.probe.close()
	var rep report
	if o.trace {
		rep, err = b.layerPass(ctx)
	} else {
		rep, err = b.gatedPass(ctx)
	}
	if err != nil {
		return report{}, err
	}
	b.print(rep)
	return rep, nil
}

// mkdirAll creates dir (best effort; MkdirTemp reports the real error).
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// print writes the human-readable report: one row per metric.
func (b *bench) print(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	pass := "gated"
	if b.o.trace {
		pass = "layer"
	}
	fmt.Fprintf(b.o.log, "%s pass of %s (seed %d, %gs): %d jobs, %d failed\n",
		pass, b.w.name, b.o.seed, b.o.seconds, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(b.o.log, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// finite maps NaN and ±Inf (an empty ratio) to 0 so the report stays
// valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
