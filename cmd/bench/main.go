// Command bench runs the fixed simulation benchmark suite and writes
// BENCH_sim.json: one entry per kernel or end-to-end workload, with the
// measured numbers, the checked-in pre-split-engine baseline, and the
// solver-kernel counters each workload consumed.
//
//	go run ./cmd/bench                          # writes BENCH_sim.json
//	go run ./cmd/bench -readme                  # also refresh the README table
//	go run ./cmd/bench -compare BENCH_sim.json  # CI gate: fail on regression
//
// The pre-split baselines were measured against the stamp-everything
// engine (before the split-stamp/linear-snapshot rewrite) by running
// this suite's workload definitions against that tree; the pre-lowrank
// baseline of impact_search is measured live in the same run by forcing
// the throwaway insert+restamp path, so the recorded ratio is
// machine-consistent by construction.
//
// -compare re-runs the suite and diffs it against a checked-in report:
// any workload whose ns/op regresses by more than -tolerance (default
// 10 %) fails the run with a nonzero exit, so CI catches perf
// regressions instead of silently rewriting the JSON. Workloads that
// record a latency distribution (impact_search) additionally carry a
// p99, gated at twice the ns/op tolerance — tails are noisier than
// means, but a blown tail is exactly what the mean hides.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/mna"
	"repro/internal/obs/hist"
	"repro/internal/sim"
	"repro/internal/testcfg"
	"repro/internal/wave"
)

// baseline is a reference measurement of a workload: either the
// checked-in pre-split-engine numbers or a live pre-lowrank run.
type baseline struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// solverWork is the per-op delta of the simulation kernel counters.
type solverWork struct {
	Stamps              float64 `json:"stamps"`
	Factorizations      float64 `json:"factorizations"`
	FactorReuses        float64 `json:"factor_reuses"`
	NewtonIterations    float64 `json:"newton_iterations"`
	BaseHits            float64 `json:"base_hits"`
	WoodburySolves      float64 `json:"woodbury_solves,omitempty"`
	WoodburyFallbacks   float64 `json:"woodbury_fallbacks,omitempty"`
	FaultyFactorAvoided float64 `json:"faulty_factor_avoided,omitempty"`
}

// result is one emitted workload row. Each workload carries whichever
// baselines apply: the historical pre-split numbers, and/or the
// pre-lowrank throwaway path measured in the same run.
type result struct {
	Name        string  `json:"name"`
	Desc        string  `json:"desc"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// P99NsPerOp is the tail of the per-op latency distribution, present
	// only for workloads that record one (impact_search). The mean of a
	// generation workload hides the impact-ladder tail; this doesn't.
	P99NsPerOp         float64    `json:"p99_ns_per_op,omitempty"`
	Baseline           *baseline  `json:"baseline_pre_split,omitempty"`
	BaselinePreLowrank *baseline  `json:"baseline_pre_lowrank,omitempty"`
	Speedup            float64    `json:"speedup"`
	Solver             solverWork `json:"solver_per_op"`
}

// report is the BENCH_sim.json document. BaselineCommit records the
// tree the numbers were measured at (git rev-parse --short HEAD at
// emit time).
type report struct {
	BaselineCommit string   `json:"baseline_commit"`
	GoVersion      string   `json:"go_version"`
	GOARCH         string   `json:"goarch"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	Workloads      []result `json:"workloads"`
}

// body is a benchmark body that returns the simulation kernel work its
// b.N ops did, read from the engines' own Stats or from the sessions'
// metrics; solver_per_op divides it by b.N.
type body func(b *testing.B) sim.Counters

// workload pairs a benchmark body with its reference measurements.
// slow, when set, is an alternate body implementing the pre-lowrank
// path; it is benchmarked in the same process and recorded as
// baseline_pre_lowrank.
type workload struct {
	name string
	desc string
	base *baseline
	fn   body
	slow body
	// lat, when non-nil, is the per-op latency histogram the body records
	// into; its p99 lands in the JSON next to ns/op.
	lat *hist.Histogram
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output path for the JSON report")
	readme := flag.Bool("readme", false, "also refresh the benchmark table in README.md between the bench-table markers")
	comparePath := flag.String("compare", "", "compare against a checked-in report instead of writing one; exit nonzero on ns/op regression beyond -tolerance")
	tolerance := flag.Float64("tolerance", 0.10, "relative ns/op regression allowed by -compare (0.10 = 10 %)")
	flag.Parse()

	rep := report{
		BaselineCommit: headCommit(),
		GoVersion:      runtime.Version(),
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}
	for _, w := range workloads() {
		// The last run of the body is the one res reports.
		var t sim.Counters
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			t = w.fn(b)
		})
		n := float64(res.N)
		r := result{
			Name:        w.name,
			Desc:        w.desc,
			NsPerOp:     float64(res.NsPerOp()),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			Baseline:    w.base,
			Solver: solverWork{
				Stamps:              float64(t.Stamps) / n,
				Factorizations:      float64(t.Factorizations) / n,
				FactorReuses:        float64(t.FactorReuses) / n,
				NewtonIterations:    float64(t.NewtonIterations) / n,
				BaseHits:            float64(t.BaseHits) / n,
				WoodburySolves:      float64(t.WoodburySolves) / n,
				WoodburyFallbacks:   float64(t.WoodburyFallbacks) / n,
				FaultyFactorAvoided: float64(t.FaultyFactorAvoided) / n,
			},
		}
		if w.slow != nil {
			sres := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				w.slow(b)
			})
			r.BaselinePreLowrank = &baseline{
				NsPerOp:     float64(sres.NsPerOp()),
				BytesPerOp:  sres.AllocedBytesPerOp(),
				AllocsPerOp: sres.AllocsPerOp(),
			}
		}
		if w.lat != nil {
			if s := w.lat.Snapshot(); s.Count > 0 {
				r.P99NsPerOp = float64(s.P99())
			}
		}
		if ref := r.reference(); ref != nil && r.NsPerOp > 0 {
			r.Speedup = ref.NsPerOp / r.NsPerOp
		}
		tail := ""
		if r.P99NsPerOp > 0 {
			tail = fmt.Sprintf("   p99 %.0f ns", r.P99NsPerOp)
		}
		fmt.Printf("%-24s %12.0f ns/op %8d B/op %6d allocs/op   %.2fx vs baseline%s\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Speedup, tail)
		rep.Workloads = append(rep.Workloads, r)
	}

	if *comparePath != "" {
		if err := compare(*comparePath, rep, *tolerance); err != nil {
			fail(err)
		}
		fmt.Printf("no ns/op regression beyond %.0f %% vs %s\n", *tolerance*100, *comparePath)
		return
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *readme {
		if err := refreshReadme("README.md", rep); err != nil {
			fail(err)
		}
		fmt.Println("refreshed README.md bench table")
	}
}

// reference returns the baseline the workload's speedup is quoted
// against: the historical pre-split numbers when present, otherwise the
// live pre-lowrank measurement.
func (r result) reference() *baseline {
	if r.Baseline != nil {
		return r.Baseline
	}
	return r.BaselinePreLowrank
}

// headCommit stamps the provenance field from the work tree; outside a
// git checkout the field degrades to "unknown" rather than failing the
// run.
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compare diffs the fresh measurements against a checked-in report by
// workload name: ns/op gated at tol, and — when both reports carry one
// — p99 gated at twice tol, since the tail of a distribution is noisier
// than its mean (allocation counts and solver work stay informational).
// It returns an error listing every workload that regressed beyond its
// bound.
func compare(path string, fresh report, tol float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old report
	if err := json.Unmarshal(buf, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	oldBy := make(map[string]result, len(old.Workloads))
	for _, w := range old.Workloads {
		oldBy[w.Name] = w
	}
	var regressions []string
	for _, w := range fresh.Workloads {
		prev, ok := oldBy[w.Name]
		if !ok || prev.NsPerOp <= 0 {
			fmt.Printf("%-24s not in %s, skipped\n", w.Name, path)
			continue
		}
		ratio := w.NsPerOp/prev.NsPerOp - 1
		fmt.Printf("%-24s %12.0f ns/op vs %12.0f checked in  (%+.1f %%)\n",
			w.Name, w.NsPerOp, prev.NsPerOp, ratio*100)
		if ratio > tol {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %.1f %% (%.0f -> %.0f ns/op)", w.Name, ratio*100, prev.NsPerOp, w.NsPerOp))
		}
		if prev.P99NsPerOp > 0 && w.P99NsPerOp > 0 {
			p99Tol := 2 * tol
			p99Ratio := w.P99NsPerOp/prev.P99NsPerOp - 1
			fmt.Printf("%-24s %12.0f p99   vs %12.0f checked in  (%+.1f %%, bound %.0f %%)\n",
				w.Name, w.P99NsPerOp, prev.P99NsPerOp, p99Ratio*100, p99Tol*100)
			if p99Ratio > p99Tol {
				regressions = append(regressions,
					fmt.Sprintf("%s p99 regressed %.1f %% (%.0f -> %.0f ns)", w.Name, p99Ratio*100, prev.P99NsPerOp, w.P99NsPerOp))
			}
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("ns/op regressions beyond %.0f %%:\n  %s",
			tol*100, strings.Join(regressions, "\n  "))
	}
	return nil
}

// refreshReadme rewrites the benchmark table between the bench-table
// markers from the freshly measured report.
func refreshReadme(path string, rep report) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	const startMark = "<!-- bench-table-start"
	const endMark = "<!-- bench-table-end -->"
	s := string(src)
	i := strings.Index(s, startMark)
	j := strings.Index(s, endMark)
	if i < 0 || j < 0 || j < i {
		return fmt.Errorf("bench-table markers not found in %s", path)
	}
	// Preserve the start-marker line itself (it carries the howto).
	nl := strings.Index(s[i:], "\n")
	if nl < 0 {
		return fmt.Errorf("malformed start marker in %s", path)
	}
	var t strings.Builder
	t.WriteString("| workload | description | before | after | allocs/op | speedup |\n")
	t.WriteString("|---|---|---|---|---|---|\n")
	fmtNs := func(ns float64) string {
		if ns >= 1e3 {
			return fmt.Sprintf("%.1f µs", ns/1e3)
		}
		return fmt.Sprintf("%.0f ns", ns)
	}
	for _, w := range rep.Workloads {
		ref := w.reference()
		if ref == nil {
			ref = &baseline{}
		}
		fmt.Fprintf(&t, "| `%s` | %s | %s | %s | %d → %d | %.2f× |\n",
			w.Name, w.Desc, fmtNs(ref.NsPerOp), fmtNs(w.NsPerOp),
			ref.AllocsPerOp, w.AllocsPerOp, w.Speedup)
	}
	out := s[:i+nl+1] + t.String() + s[j:]
	return os.WriteFile(path, []byte(out), 0o644)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// ladderCircuit is the linear-network kernel workload: a 16-node
// resistive ladder with cross-bridge resistors, mirroring what the
// bridging-fault dictionary does to a macro netlist (resistors between
// arbitrary node pairs densify the MNA matrix). On a linear circuit the
// stamped matrix is identical across iterations and sweep points, so
// the sweep isolates the split-stamp engine's snapshot restore and
// same-pattern factorization reuse.
func ladderCircuit() *circuit.Circuit {
	const nodes = 16
	c := circuit.New("bridged-ladder")
	node := func(i int) string { return fmt.Sprintf("n%d", (i-1)%nodes+1) }
	c.Add(device.NewISource("Iin", node(1), "0", wave.DC(0)))
	for i := 1; i < nodes; i++ {
		c.Add(device.NewResistor(fmt.Sprintf("Rs%d", i), node(i), node(i+1), 1e3))
	}
	for i := 1; i <= nodes; i++ {
		c.Add(device.NewResistor(fmt.Sprintf("Rp%d", i), node(i), "0", 10e3))
	}
	for _, stride := range []int{2, 3, 5, 7, 11} {
		for i := 1; i <= nodes; i += 2 {
			c.Add(device.NewResistor(fmt.Sprintf("Rb%d_%d", stride, i), node(i), node(i+stride), 25e3))
		}
	}
	return c
}

// sessionOps runs op b.N times, each on a fresh session built with the
// timer stopped: configurations #1/#2 with seed boxes. A session
// simulates each distinct analysis once, so an op repeated on one
// session would time memo lookups, not simulations. It returns the
// kernel work of the ops alone: each session's solver counters after
// its op minus those right after its construction, read while the
// timer is stopped for the next construction (or for good, after the
// last op).
func sessionOps(b *testing.B, scfg core.Config, op func(s *core.Session) error) sim.Counters {
	var work, built sim.Counters
	var s *core.Session
	finish := func() {
		if s != nil {
			work.Add(s.Metrics().Solver.Sub(built))
		}
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		finish()
		var err error
		if s, err = core.NewSession(macros.IVConverter(), testcfg.IVConfigs()[:2], scfg); err != nil {
			b.Fatal(err)
		}
		built = s.Metrics().Solver
		b.StartTimer()
		if err := op(s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	finish()
	return work
}

// impactSearchBody is the impact-search hot loop the low-rank path
// targets: full test generation — per-config optimization plus the
// relax/intensify impact ladder — for one bridging fault on the
// IV-converter, on a fresh session per op. The disable variant forces
// every faulty evaluation through the throwaway insert+compile+factor
// route and is recorded as baseline_pre_lowrank, so the JSON carries a
// machine-consistent before and after of the same run. Workers=1 keeps
// the measurement a pure single-thread comparison. When h is non-nil,
// every Generate records its latency, so the report carries the
// distribution tail (p99) alongside the mean.
func impactSearchBody(disableFast bool, h *hist.Histogram) body {
	return func(b *testing.B) sim.Counters {
		scfg := core.DefaultConfig()
		scfg.BoxMode = core.BoxSeed
		scfg.Workers = 1
		scfg.DisableFastPath = disableFast
		f := fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3)
		b.ResetTimer()
		return sessionOps(b, scfg, func(s *core.Session) error {
			t0 := time.Now()
			_, err := s.Generate(f)
			if h != nil {
				h.RecordDuration(time.Since(t0))
			}
			return err
		})
	}
}

// impactSearchWorkload builds the impact_search row with its latency
// histogram: the fast path records per-Generate latency (the slow
// variant doesn't — its distribution isn't reported).
func impactSearchWorkload() workload {
	h := hist.New()
	return workload{
		name: "impact_search",
		desc: "impact-ladder search for one feedback bridge (retained low-rank evaluators)",
		fn:   impactSearchBody(false, h),
		slow: impactSearchBody(true, nil),
		lat:  h,
	}
}

// coverageDCWorkload builds the coverage_dc row: test generation for
// three faults under configurations #1/#2, on a fresh session per op.
// Its pre-split baseline was measured with this body (1 s benchtime,
// GOMAXPROCS=1); the same tree timed with the old body, which repeated
// GenerateAll on one session, within 11 % of the number recorded for it.
func coverageDCWorkload() workload {
	return workload{
		name: "coverage_dc",
		desc: "DC fault-dictionary generation: 3 faults x 2 configs end to end",
		base: &baseline{NsPerOp: 13492674, BytesPerOp: 6171507, AllocsPerOp: 64393},
		fn: func(b *testing.B) sim.Counters {
			scfg := core.DefaultConfig()
			scfg.BoxMode = core.BoxSeed
			faults := []fault.Fault{
				fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3),
				fault.NewBridge(macros.NodeVref, macros.NodeIin, 10e3),
				fault.NewPinhole("M6", 2e3),
			}
			b.ResetTimer()
			return sessionOps(b, scfg, func(s *core.Session) error {
				_, err := s.GenerateAll(faults)
				return err
			})
		},
	}
}

// workloads returns the fixed suite. Baseline numbers were measured at
// the baseline commit with the same workload bodies (2 s benchtime).
func workloads() []workload {
	return []workload{
		{
			name: "lu_factor_solve_12",
			desc: "dense real LU factor+solve, n=12 (mna kernel)",
			base: &baseline{NsPerOp: 1138, BytesPerOp: 96, AllocsPerOp: 1},
			fn: func(b *testing.B) sim.Counters {
				n := 12
				s := mna.NewSystem(n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						v := 1.0 / float64(1+i+j)
						if i == j {
							v += float64(n)
						}
						s.Add(i, j, v)
					}
					s.AddRHS(i, float64(i))
				}
				dst := make([]float64, n)
				save := make([]float64, n*n)
				s.SaveMatrix(save)
				// Dither one diagonal entry so the same-pattern reuse
				// cannot fire: this row measures a full factorization
				// plus substitution, like the pre-split FactorSolve.
				jitter := [2]float64{0, 1e-9}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.SetMatrix(save)
					s.Add(0, 0, jitter[i&1])
					if _, err := s.FactorSolveInto(dst); err != nil {
						b.Fatal(err)
					}
				}
				return sim.Counters{} // below the simulation kernel
			},
		},
		{
			name: "op_cold",
			desc: "cold DC operating point of the IV-converter macro",
			base: &baseline{NsPerOp: 20390, BytesPerOp: 1968, AllocsPerOp: 21},
			fn: func(b *testing.B) sim.Counters {
				eng, err := sim.New(macros.IVConverter(), sim.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.OperatingPoint(); err != nil {
						b.Fatal(err)
					}
				}
				return eng.Stats()
			},
		},
		{
			name: "newton_warm_sweep16",
			desc: "16-point warm DC sweep of the IV-converter (steady-state Newton)",
			base: &baseline{NsPerOp: 55084, BytesPerOp: 6992, AllocsPerOp: 87},
			fn: func(b *testing.B) sim.Counters {
				eng, err := sim.New(macros.IVConverter(), sim.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				vals := make([]float64, 16)
				for i := range vals {
					vals[i] = 20e-6
				}
				if _, err := eng.SweepDC(macros.InputSourceName, vals); err != nil {
					b.Fatal(err)
				}
				warm := eng.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.SweepDC(macros.InputSourceName, vals); err != nil {
						b.Fatal(err)
					}
				}
				return eng.Stats().Sub(warm)
			},
		},
		{
			name: "newton_linear_sweep32",
			desc: "32-point DC sweep of a bridged resistive ladder (linear Newton kernel)",
			base: &baseline{NsPerOp: 163877, BytesPerOp: 13704, AllocsPerOp: 133},
			fn: func(b *testing.B) sim.Counters {
				eng, err := sim.New(ladderCircuit(), sim.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				vals := make([]float64, 32)
				for i := range vals {
					vals[i] = float64(i) * 1e-6
				}
				if _, err := eng.SweepDC("Iin", vals); err != nil {
					b.Fatal(err)
				}
				warm := eng.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.SweepDC("Iin", vals); err != nil {
						b.Fatal(err)
					}
				}
				return eng.Stats().Sub(warm)
			},
		},
		{
			name: "ac_sweep_64",
			desc: "64-point AC Bode sweep of the IV-converter",
			base: &baseline{NsPerOp: 149230, BytesPerOp: 30696, AllocsPerOp: 142},
			fn: func(b *testing.B) sim.Counters {
				eng, err := sim.New(macros.IVConverter(), sim.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				xop, err := eng.OperatingPoint()
				if err != nil {
					b.Fatal(err)
				}
				op := eng.Stats()
				freqs := sim.LogSpace(1e3, 1e9, 64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.AC(xop, macros.InputSourceName, freqs); err != nil {
						b.Fatal(err)
					}
				}
				return eng.Stats().Sub(op)
			},
		},
		{
			name: "transient_step",
			desc: "7.5 µs step response of the IV-converter (fixed 10 ns steps)",
			base: &baseline{NsPerOp: 2020944, BytesPerOp: 299857, AllocsPerOp: 3203},
			fn: func(b *testing.B) sim.Counters {
				var work sim.Counters
				for i := 0; i < b.N; i++ {
					ckt := macros.IVConverter()
					macros.SetInputWave(ckt, wave.Step{Base: 5e-6, Elev: 20e-6, Delay: 10e-9, Rise: 10e-9})
					eng, err := sim.New(ckt, sim.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.Transient(7.5e-6, 10e-9, []string{macros.NodeVout}); err != nil {
						b.Fatal(err)
					}
					work.Add(eng.Stats())
				}
				return work
			},
		},
		impactSearchWorkload(),
		coverageDCWorkload(),
	}
}
