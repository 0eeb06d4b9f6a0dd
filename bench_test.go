package repro

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation section (plus the DESIGN.md ablations and substrate
// micro-benchmarks). Each experiment benchmark drives the same code path
// as `cmd/experiments -only <id>`, with the reduced "quick" workload so
// the whole suite finishes in minutes on one core; the full paper-scale
// rows are produced by `go run ./cmd/experiments`.

import (
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/mna"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/testcfg"
	"repro/internal/wave"
)

// benchRunner is shared by the experiment benchmarks so that the session
// and the memoized quick generation are built once, not per benchmark.
var (
	benchOnce   sync.Once
	benchShared *experiments.Runner
)

func sharedRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchShared = experiments.New(experiments.Options{Out: io.Discard, Quick: true})
	})
	return benchShared
}

// benchExperiment runs one experiment per iteration against the shared
// runner. These benchmarks are one-shot: the runner's session simulates
// each distinct analysis once, so past the first iteration ns/op times
// lookups in its analysis memo rather than simulations. Run them at
// -benchtime=1x, as CI does.
func benchExperiment(b *testing.B, id string) {
	r := sharedRunner(b)
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -------------------------------

func BenchmarkTable1Configs(b *testing.B)               { benchExperiment(b, "table1") }
func BenchmarkFig1ConfigDescription(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig2TPSGraphHard(b *testing.B)            { benchExperiment(b, "fig2") }
func BenchmarkFig3TPSGraphSoft(b *testing.B)            { benchExperiment(b, "fig3") }
func BenchmarkFig4TPSGraphSofter(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5ToleranceBox(b *testing.B)            { benchExperiment(b, "fig5") }
func BenchmarkFig6SingleFaultGeneration(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7PinholeInsertion(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkTable2GenerateAll(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkFig8OptimalParameterScatter(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkTable3Compaction(b *testing.B)            { benchExperiment(b, "table3") }

// --- Ablation benchmarks ---------------------------------------------

func BenchmarkAblationSelectionOnly(b *testing.B) { benchExperiment(b, "ablation-selection") }
func BenchmarkAblationSoftRegion(b *testing.B)    { benchExperiment(b, "ablation-soft") }
func BenchmarkAblationOptimizers(b *testing.B)    { benchExperiment(b, "ablation-opt") }
func BenchmarkAblationDeltaSweep(b *testing.B)    { benchExperiment(b, "ablation-delta") }
func BenchmarkAblationBoxMode(b *testing.B)       { benchExperiment(b, "ablation-boxmode") }
func BenchmarkAblationRadiusSweep(b *testing.B)   { benchExperiment(b, "ablation-radius") }

// --- Substrate micro-benchmarks --------------------------------------

func BenchmarkLUFactorSolve12(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FactorSolve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOperatingPoint(b *testing.B) {
	ckt := macros.IVConverter()
	e, err := sim.New(ckt, sim.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.OperatingPoint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientStepResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ckt := macros.IVConverter()
		macros.SetInputWave(ckt, wave.Step{Base: 5e-6, Elev: 20e-6, Delay: 10e-9, Rise: 10e-9})
		e, err := sim.New(ckt, sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Transient(7.5e-6, 10e-9, []string{macros.NodeVout}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientTHDRun(b *testing.B) {
	cfg := testcfg.ByID(testcfg.IVConfigs(), 3)
	ckt := macros.IVConverter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Run(ckt, []float64{20e-6, 10e3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityDCEval times one faulty DC evaluation against a
// cached nominal response.
func BenchmarkSensitivityDCEval(b *testing.B) {
	f := fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3)
	T := []float64{20e-6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := freshDCSession(b)
		b.StopTimer()
		if _, err := s.Nominal(0, T); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Sensitivity(0, f, T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultInsertion(b *testing.B) {
	ckt := macros.IVConverter()
	f := fault.NewPinhole("M6", 2e3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc, err := f.Insert(ckt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fc.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrentQuadratic(b *testing.B) {
	f := func(x float64) float64 { return (x - 0.3) * (x - 0.3) }
	for i := 0; i < b.N; i++ {
		res := opt.Brent(f, -1, 1, 1e-6)
		if math.Abs(res.X[0]-0.3) > 1e-3 {
			b.Fatal("brent failed")
		}
	}
}

func BenchmarkPowellRosenbrockish(b *testing.B) {
	f := func(x []float64) float64 {
		u := x[0] + x[1]
		v := x[0] - x[1]
		return u*u + 100*(v-0.5)*(v-0.5)
	}
	box := opt.NewBox([]float64{-2, -2}, []float64{2, 2})
	for i := 0; i < b.N; i++ {
		res := opt.Powell(f, box, []float64{1, 1}, 1e-6)
		if res.F > 1e-4 {
			b.Fatal("powell failed")
		}
	}
}

func BenchmarkCircuitClone(b *testing.B) {
	ckt := macros.IVConverter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := ckt.Clone()
		if len(cc.Devices()) != len(ckt.Devices()) {
			b.Fatal("clone lost devices")
		}
	}
}

// --- Engine benchmarks -----------------------------------------------

// nominalBenchSession builds a cheap DC session and pre-warms nWarm
// distinct nominal cache entries.
func nominalBenchSession(b *testing.B, nWarm int) (*core.Session, [][]float64) {
	b.Helper()
	scfg := core.DefaultConfig()
	scfg.BoxMode = core.BoxSeed
	s, err := core.NewSession(macros.IVConverter(), testcfg.IVConfigs()[:1], scfg)
	if err != nil {
		b.Fatal(err)
	}
	params := make([][]float64, nWarm)
	for i := range params {
		params[i] = []float64{5e-6 + 30e-6*float64(i)/float64(nWarm)}
		if _, err := s.Nominal(0, params[i]); err != nil {
			b.Fatal(err)
		}
	}
	return s, params
}

// BenchmarkNominalCacheHitParallel measures the cache hit path under
// full parallelism — the path that used to serialize every Sensitivity
// call on one global mutex and now spreads across FNV shards.
func BenchmarkNominalCacheHitParallel(b *testing.B) {
	s, params := nominalBenchSession(b, 256)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.Nominal(0, params[i%len(params)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkNominalCacheHitSerial is the single-goroutine baseline for
// the parallel benchmark above.
func BenchmarkNominalCacheHitSerial(b *testing.B) {
	s, params := nominalBenchSession(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Nominal(0, params[i%len(params)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateAllDC runs the full generation pipeline (engine
// work-stealing pool over (fault, config) tasks) on a small DC-only
// workload.
func BenchmarkGenerateAllDC(b *testing.B) {
	faults := []fault.Fault{
		fault.NewBridge(macros.NodeIin, macros.NodeVout, 10e3),
		fault.NewBridge(macros.NodeVref, macros.NodeIin, 10e3),
		fault.NewPinhole("M6", 2e3),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := freshDCSession(b).GenerateAll(faults); err != nil {
			b.Fatal(err)
		}
	}
}

// freshDCSession builds, with the timer stopped, the session that one op
// of a DC generation benchmark runs on (configurations #1/#2, seed
// boxes). A session simulates each distinct analysis once, so an op
// repeated on one session would time memo lookups, not simulations.
func freshDCSession(b *testing.B) *core.Session {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	scfg := core.DefaultConfig()
	scfg.BoxMode = core.BoxSeed
	s, err := core.NewSession(macros.IVConverter(), testcfg.IVConfigs()[:2], scfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkAblationImpactSweep(b *testing.B) { benchExperiment(b, "ablation-impact") }

func BenchmarkMacro2Pipeline(b *testing.B) { benchExperiment(b, "macro2") }

func BenchmarkOpensExtension(b *testing.B) { benchExperiment(b, "opens") }
