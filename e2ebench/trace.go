package main

import (
	"sort"
	"strings"
	"sync"

	"repro"
)

// Layers of the attribution table. Index 0 is the unattributed
// residual: time no leaf span covers, plus the self time of a job's
// root span (harness code between instrumented calls).
var layers = []string{"unattributed", "sim", "core", "engine", "api", "server", "bench"}

const (
	unattributed = iota
	layerSim
	layerCore
	layerEngine
	layerAPI
	layerServer
	layerBench
)

// layerOf maps a span name to its layer. The program's own spans are
// sim.* (per-analysis solver spans), engine.task, and the core's phase
// spans (box-build, generate-all, optimize, impact-loop, compact,
// coverage, shard); bench.* spans wrap the harness's calls into the
// layers.
func layerOf(name string) int {
	switch {
	case strings.HasPrefix(name, "sim."):
		return layerSim
	case name == "engine.task":
		return layerEngine
	case name == "bench.job":
		return unattributed
	case name == "bench.encode":
		return layerAPI
	case name == "bench.verify":
		return layerBench
	case strings.HasPrefix(name, "bench.http."):
		return layerServer
	default:
		// bench.setup/generate/compact/coverage wrap facade calls into
		// the core; everything else the program emits is a core phase.
		return layerCore
	}
}

// tspan is one span on the benchmark clock (ns since the pass began).
type tspan struct {
	start, end int64
	layer      int
	// parent indexes the enclosing span in the same slice (-1: root).
	parent int
	// retro marks an unparented retrospective span (the simulation
	// kernel's sim.* spans), attached to its parent by containment.
	retro bool
}

// nest makes spans a proper forest: each retrospective span is attached
// to the innermost span whose interval contains it (falling back to the
// parent it already has), and every child is clamped into its parent.
// Containment is exact only when spans of one job do not run in
// parallel, which is why every job runs one engine worker.
func nest(spans []tspan) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	var stack []int
	for _, i := range order {
		s := &spans[i]
		if s.end < s.start {
			s.end = s.start // never closed: contributes nothing
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if s.retro {
			for k := len(stack) - 1; k >= 0; k-- {
				if spans[stack[k]].end >= s.end {
					s.parent = stack[k]
					break
				}
			}
		}
		if p := s.parent; p >= 0 {
			s.start = min(max(s.start, spans[p].start), spans[p].end)
			s.end = min(max(s.end, s.start), spans[p].end)
		}
		stack = append(stack, i)
	}
}

// attribute sweeps the forest over [from, to] and returns each layer's
// exclusive time in ns, indexed like layers. Every instant goes to the
// leaf spans active at that instant — split evenly when several run in
// parallel — or, when none is, to the unattributed residual, so the
// entries always sum to to − from.
func attribute(spans []tspan, from, to int64) []float64 {
	type edge struct {
		t     int64
		i     int
		start bool
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		if s.end > s.start {
			edges = append(edges, edge{s.start, i, true}, edge{s.end, i, false})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return edges[a].start && !edges[b].start
	})

	out := make([]float64, len(layers))
	leaves := make([]int, len(layers))
	nLeaves := 0
	kids := make([]int, len(spans))
	active := make([]bool, len(spans))
	leaf := func(i, d int) {
		leaves[spans[i].layer] += d
		nLeaves += d
	}
	prev := from
	flush := func(t int64) {
		lo, hi := max(prev, from), min(t, to)
		if hi > lo {
			d := float64(hi - lo)
			if nLeaves == 0 {
				out[unattributed] += d
			} else {
				for l, c := range leaves {
					if c > 0 {
						out[l] += d * float64(c) / float64(nLeaves)
					}
				}
			}
		}
		prev = t
	}
	for _, e := range edges {
		if e.t != prev {
			flush(e.t)
		}
		p := spans[e.i].parent
		if e.start {
			active[e.i] = true
			if p >= 0 {
				if active[p] && kids[p] == 0 {
					leaf(p, -1)
				}
				kids[p]++
			}
			if kids[e.i] == 0 {
				leaf(e.i, +1)
			}
			continue
		}
		if kids[e.i] == 0 {
			leaf(e.i, -1)
		}
		active[e.i] = false
		if p >= 0 {
			kids[p]--
			if active[p] && kids[p] == 0 {
				leaf(p, +1)
			}
		}
	}
	flush(to)
	return out
}

// spanSink is the in-memory trace sink of one traced local job. It
// keeps span intervals only (point events would cost memory the
// attribution does not need), moved onto the benchmark clock.
type spanSink struct {
	clock func() int64

	mu    sync.Mutex
	epoch int64
	spans []tspan
	ids   map[uint64]int
}

func newSpanSink(clock func() int64) *spanSink {
	return &spanSink{clock: clock, ids: make(map[uint64]int)}
}

// Emit implements repro.TraceSink.
func (s *spanSink) Emit(ev repro.TraceEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case "run_start":
		// The tracer stamps run_start at its epoch, so the sink's clock
		// reading now is the epoch on the benchmark clock.
		s.epoch = s.clock()
	case "span_start":
		parent, ok := s.ids[ev.Parent]
		if !ok {
			parent = -1
		}
		s.ids[ev.Span] = len(s.spans)
		s.spans = append(s.spans, tspan{
			start:  s.epoch + ev.TS,
			end:    -1,
			layer:  layerOf(ev.Name),
			parent: parent,
			retro:  ev.Parent == 0 && strings.HasPrefix(ev.Name, "sim."),
		})
	case "span_end":
		if i, ok := s.ids[ev.Span]; ok {
			s.spans[i].end = s.epoch + ev.TS
		}
	}
}

func (s *spanSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// since returns a copy of the spans recorded after the first n.
func (s *spanSink) since(n int) []tspan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]tspan(nil), s.spans[n:]...)
}

// timeline accumulates the spans of every traced job of a pass.
type timeline struct {
	spans []tspan
}

// add appends one job's spans, re-basing their parent indices, and
// nests them. Jobs are nested separately so a span of one job is never
// attached to another's.
func (t *timeline) add(job []tspan) {
	nest(job)
	off := len(t.spans)
	for _, s := range job {
		if s.parent >= 0 {
			s.parent += off
		}
		t.spans = append(t.spans, s)
	}
}
