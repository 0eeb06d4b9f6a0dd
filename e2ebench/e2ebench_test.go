package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsMatchSpec checks that BENCHMARK.json lists exactly the
// workloads the benchmark implements.
func TestWorkloadsMatchSpec(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark implements %s", got, want)
	}
}

// TestSmoke runs every workload at smoke size through the gated and the
// layer pass and checks the report: every job verifies against its pin,
// every metric BENCHMARK.json names is emitted with its unit (and no
// other), and the traced layer shares plus the unattributed residual
// account for the traced wall clock within 1 %.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, want := w.name+"/gated", s.EndToEnd
			if traced {
				name, want = w.name+"/layer", s.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				rep, err := run(ctx, options{
					workload: w.name, seed: 1, seconds: 0.01, trace: traced,
					smoke: true, scratch: t.TempDir(), log: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("report: correct %v, %d attempted, %d failed", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !traced {
					return
				}
				sum := rep.Metrics["trace.unattributed_share"].Value
				for _, l := range layers[1:] {
					sum += rep.Metrics["trace."+l+".self_share"].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("layer shares sum to %.4f of the traced wall, want 1 ± 0.01", sum)
				}
			})
		}
	}
}

// TestProbeScale checks that an interval's scale averages the samples
// inside it, and borrows the nearest ones when it holds too few.
func TestProbeScale(t *testing.T) {
	p := &probe{
		at:    []int64{10, 20, 30, 40, 50, 60, 70, 80},
		speed: []float64{1, 1, 1, 1, 2, 2, 2, 2},
	}
	for _, c := range []struct {
		from, to int64
		want     float64
	}{
		{0, 100, 1.5},  // every sample
		{5, 45, 1},     // the four inside
		{52, 58, 1.75}, // none inside: 40, 50, 60, 70 are nearest
		{90, 95, 2},    // past the end: the last four
	} {
		if got := p.scale(c.from, c.to); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scale(%d, %d) = %g, want %g", c.from, c.to, got, c.want)
		}
	}
}

// TestAttributeSplitsParallelLeaves checks the sweep on a hand-built
// forest: nested self time, an even split between parallel leaves,
// retrospective spans attached by containment, and the residual.
func TestAttributeSplitsParallelLeaves(t *testing.T) {
	spans := []tspan{
		{start: 0, end: 100, layer: unattributed, parent: -1},         // 0: job root
		{start: 10, end: 90, layer: layerCore, parent: 0},             // 1
		{start: 20, end: 60, layer: layerEngine, parent: 1},           // 2: task A
		{start: 40, end: 80, layer: layerBench, parent: 1},            // 3: B, parallel to A
		{start: 25, end: 35, layer: layerSim, parent: 0, retro: true}, // 4: inside A only
	}
	var tl timeline
	tl.add(spans)
	if p := tl.spans[4].parent; p != 2 {
		t.Fatalf("retrospective span attached to %d, want 2 (the task containing it)", p)
	}
	got := attribute(tl.spans, -10, 110)
	want := map[int]float64{
		unattributed: 20 + 10 + 10, // outside the root, plus root self time
		layerCore:    10 + 10,
		layerSim:     10,
		layerEngine:  (20 - 10) + 20/2, // A alone, then its half while B runs
		layerBench:   20/2 + 20,        // B's half while A runs, then B alone
	}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-9 {
			t.Errorf("%s: %g ns, want %g", layers[l], got[l], v)
		}
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total != 120 {
		t.Errorf("shares sum to %g ns, want the 120 ns window", total)
	}
}
