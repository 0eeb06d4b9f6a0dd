package export

// Prometheus text exposition, format 0.0.4 — the scrape surface of
// /metrics under `Accept: text/plain`. The writer half (PromText,
// PromFromMetrics) renders counters, gauges and cumulative histogram
// buckets; the parser half (ParseProm) is a minimal in-repo validator
// so the round-trip tests and CI need no promtool.
//
// Histograms come in as api.HistogramSnapshot (non-cumulative log-linear
// buckets, nanoseconds for duration series) and go out in the cumulative
// `le` convention Prometheus requires: each _bucket sample counts every
// observation at or below its upper bound, ending at le="+Inf" == _count.
// Cumulative buckets are what make histogram series mergeable across
// scrapes and rate()-able per bucket — the non-cumulative wire shape
// would break both.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/api"
)

// PromLabels is an ordered label set ({{"phase", "optimize"}, ...}).
// Order is preserved on output so expositions are deterministic.
type PromLabels [][2]string

// PromText accumulates one exposition payload. The zero value is ready
// to use. Emit every sample of a family together (header once, then
// samples); the format forbids interleaving families.
type PromText struct {
	b      bytes.Buffer
	headed map[string]bool
}

// header writes the # HELP / # TYPE preamble once per family.
func (p *PromText) header(name, help, typ string) {
	if p.headed[name] {
		return
	}
	if p.headed == nil {
		p.headed = make(map[string]bool)
	}
	p.headed[name] = true
	fmt.Fprintf(&p.b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&p.b, "# TYPE %s %s\n", name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// sample writes one sample line.
func (p *PromText) sample(name string, labels PromLabels, v float64) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, `%s="%s"`, kv[0], escapeLabel(kv[1]))
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(formatPromValue(v))
	p.b.WriteByte('\n')
}

// formatPromValue renders a sample value ("+Inf"/"-Inf"/"NaN" spelled
// the way the format requires).
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter sample.
func (p *PromText) Counter(name, help string, labels PromLabels, v float64) {
	p.header(name, help, "counter")
	p.sample(name, labels, v)
}

// Gauge emits one gauge sample.
func (p *PromText) Gauge(name, help string, labels PromLabels, v float64) {
	p.header(name, help, "gauge")
	p.sample(name, labels, v)
}

// Histogram emits one histogram series: cumulative _bucket samples per
// upper bound, the le="+Inf" bucket, _sum and _count. Bucket bounds and
// the sum are multiplied by scale (1e-9 turns nanosecond snapshots into
// the seconds Prometheus conventions expect; 1 keeps unitless values).
func (p *PromText) Histogram(name, help string, labels PromLabels, h api.HistogramSnapshot, scale float64) {
	p.header(name, help, "histogram")
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		le := append(append(PromLabels{}, labels...),
			[2]string{"le", formatPromValue(float64(b.Hi) * scale)})
		p.sample(name+"_bucket", le, float64(cum))
	}
	inf := append(append(PromLabels{}, labels...), [2]string{"le", "+Inf"})
	p.sample(name+"_bucket", inf, float64(h.Count))
	p.sample(name+"_sum", labels, float64(h.Sum)*scale)
	p.sample(name+"_count", labels, float64(h.Count))
}

// Bytes returns the accumulated exposition.
func (p *PromText) Bytes() []byte { return p.b.Bytes() }

// WriteTo writes the accumulated exposition to w.
func (p *PromText) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.b.Bytes())
	return int64(n), err
}

// PromFromMetrics renders an engine metrics snapshot as the atpg_*
// series: per-phase duration histograms and unit counters, the
// sub-engine duration histograms (sim.* series), the nominal-cache and
// solver-kernel counters, and the task-panic counter. It is the shared
// engine exposition of both `atpg -listen` and the running/last job of
// atpgd.
func PromFromMetrics(p *PromText, m api.MetricsSnapshot) {
	for _, ph := range m.Phases {
		p.Counter("atpg_phase_units_total", "Completed units per engine phase.",
			PromLabels{{"phase", ph.Name}}, float64(ph.Count))
		p.Counter("atpg_phase_wall_seconds_total", "Summed wall time per engine phase.",
			PromLabels{{"phase", ph.Name}}, float64(ph.WallNS)/1e9)
	}
	for _, ph := range m.Phases {
		if ph.Latency != nil && ph.Latency.Count > 0 {
			p.Histogram("atpg_duration_seconds", "Latency distributions of the generation run (per-phase units and per-analysis solves).",
				PromLabels{{"series", "phase:" + ph.Name}}, *ph.Latency, 1e-9)
		}
	}
	for _, d := range m.Durations {
		if d.Count == 0 {
			continue
		}
		if d.Name == "sim.newton_iters" {
			p.Histogram("atpg_newton_iterations", "Newton iterations per analysis (value histogram, unitless).",
				nil, d.HistogramSnapshot, 1)
			continue
		}
		p.Histogram("atpg_duration_seconds", "Latency distributions of the generation run (per-phase units and per-analysis solves).",
			PromLabels{{"series", d.Name}}, d.HistogramSnapshot, 1e-9)
	}
	c := m.Cache
	p.Counter("atpg_cache_hits_total", "Nominal-cache hits.", nil, float64(c.Hits))
	p.Counter("atpg_cache_misses_total", "Nominal-cache misses.", nil, float64(c.Misses))
	p.Counter("atpg_cache_shared_total", "Nominal-cache lookups that joined an in-flight simulation.", nil, float64(c.Shared))
	p.Counter("atpg_cache_evictions_total", "Nominal-cache evictions.", nil, float64(c.Evictions))
	p.Gauge("atpg_cache_entries", "Nominal-cache resident entries.", nil, float64(c.Entries))
	sv := m.Solver
	solver := []struct {
		what string
		v    uint64
	}{
		{"stamps", sv.Stamps},
		{"factorizations", sv.Factorizations},
		{"factor_reuses", sv.FactorReuses},
		{"newton_iterations", sv.NewtonIterations},
		{"solves", sv.Solves},
		{"base_builds", sv.BaseBuilds},
		{"base_hits", sv.BaseHits},
		{"recovery_attempts", sv.RecoveryAttempts},
		{"recoveries", sv.Recoveries},
		{"faulty_factor_avoided", sv.FaultyFactorAvoided},
	}
	for _, s := range solver {
		p.Counter("atpg_solver_ops_total", "Simulation-kernel work counters, split by kind.",
			PromLabels{{"kind", s.what}}, float64(s.v))
	}
	p.Counter("atpg_task_panics_total", "Panics recovered at the task isolation boundary.", nil, float64(m.TaskPanics))
}

// PromSample is one parsed sample line.
type PromSample struct {
	// Name is the full sample name (family name plus any _bucket/_sum/
	// _count suffix).
	Name   string
	Labels map[string]string
	Value  float64
}

// PromDoc is a parsed and validated exposition.
type PromDoc struct {
	Samples []PromSample
	// Types maps family name → declared TYPE.
	Types map[string]string
}

// Family returns the samples belonging to the named family, including a
// histogram family's _bucket/_sum/_count samples.
func (d *PromDoc) Family(name string) []PromSample {
	var out []PromSample
	for _, s := range d.Samples {
		if s.Name == name {
			out = append(out, s)
			continue
		}
		if d.Types[name] == "histogram" &&
			(s.Name == name+"_bucket" || s.Name == name+"_sum" || s.Name == name+"_count") {
			out = append(out, s)
		}
	}
	return out
}

// ParseProm parses and validates a text exposition (format 0.0.4). It
// is deliberately minimal — the subset this package emits — but strict
// within it: malformed lines, samples of a histogram family without a
// TYPE header, non-monotonic cumulative buckets, and le="+Inf" buckets
// disagreeing with _count are all errors. The tests round-trip PromText
// through it, and CI uses it (via cmd/obslint) instead of promtool.
func ParseProm(r io.Reader) (*PromDoc, error) {
	doc := &PromDoc{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				name, typ := fields[2], ""
				if len(fields) == 4 {
					typ = strings.TrimSpace(fields[3])
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("prom: line %d: unknown TYPE %q for %s", lineNo, typ, name)
				}
				if _, dup := doc.Types[name]; dup {
					return nil, fmt.Errorf("prom: line %d: duplicate TYPE for %s", lineNo, name)
				}
				doc.Types[name] = typ
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %w", lineNo, err)
		}
		doc.Samples = append(doc.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prom: %w", err)
	}
	if err := doc.validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

// parsePromSample parses `name{k="v",...} value`.
func parsePromSample(line string) (PromSample, error) {
	s := PromSample{}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQ := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQ && rest[i] == '\\':
				i++
			case rest[i] == '"':
				inQ = !inQ
			case !inQ && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		s.Labels = map[string]string{}
		for _, pair := range splitLabels(rest[1:end]) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				return s, fmt.Errorf("malformed label %q", pair)
			}
			k := strings.TrimSpace(pair[:eq])
			v := strings.TrimSpace(pair[eq+1:])
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return s, fmt.Errorf("unquoted label value %q", pair)
			}
			u := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
			s.Labels[k] = u.Replace(v[1 : len(v)-1])
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; this package never emits one,
	// so take the first field only.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := parsePromValue(rest)
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	start, inQ := 0, false
	for i := 0; i < len(body); i++ {
		switch {
		case inQ && body[i] == '\\':
			i++
		case body[i] == '"':
			inQ = !inQ
		case !inQ && body[i] == ',':
			out = append(out, body[start:i])
			start = i + 1
		}
	}
	if strings.TrimSpace(body[start:]) != "" {
		out = append(out, body[start:])
	}
	return out
}

// parsePromValue parses a sample value, accepting the format's infinity
// spellings.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// validate checks the histogram invariants: every histogram family's
// series (grouped by labels minus le) must have monotonically
// non-decreasing cumulative buckets ordered by le, an le="+Inf" bucket,
// and _count equal to it.
func (d *PromDoc) validate() error {
	for _, s := range d.Samples {
		fam := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(s.Name, suf) && d.Types[strings.TrimSuffix(s.Name, suf)] == "histogram" {
				fam = strings.TrimSuffix(s.Name, suf)
			}
		}
		if _, ok := d.Types[fam]; !ok {
			return fmt.Errorf("prom: sample %s has no TYPE header", s.Name)
		}
	}
	type series struct {
		les    []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	groups := map[string]*series{}
	key := func(fam string, labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString(fam)
		for _, k := range keys {
			fmt.Fprintf(&b, "|%s=%s", k, labels[k])
		}
		return b.String()
	}
	for _, s := range d.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket") && d.Types[strings.TrimSuffix(s.Name, "_bucket")] == "histogram":
			fam := strings.TrimSuffix(s.Name, "_bucket")
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("prom: %s_bucket without le label", fam)
			}
			lev, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("prom: %s_bucket: bad le %q", fam, le)
			}
			g := groups[key(fam, s.Labels)]
			if g == nil {
				g = &series{}
				groups[key(fam, s.Labels)] = g
			}
			g.les = append(g.les, lev)
			g.counts = append(g.counts, s.Value)
		case strings.HasSuffix(s.Name, "_count") && d.Types[strings.TrimSuffix(s.Name, "_count")] == "histogram":
			fam := strings.TrimSuffix(s.Name, "_count")
			g := groups[key(fam, s.Labels)]
			if g == nil {
				g = &series{}
				groups[key(fam, s.Labels)] = g
			}
			g.count = s.Value
			g.hasCnt = true
		}
	}
	for k, g := range groups {
		if len(g.les) == 0 {
			return fmt.Errorf("prom: histogram series %s has no buckets", k)
		}
		lastInf := g.les[len(g.les)-1]
		if !math.IsInf(lastInf, 1) {
			return fmt.Errorf("prom: histogram series %s missing le=\"+Inf\" bucket", k)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("prom: histogram series %s: le not increasing at %v", k, g.les[i])
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("prom: histogram series %s: cumulative count decreases at le=%v", k, g.les[i])
			}
		}
		if !g.hasCnt {
			return fmt.Errorf("prom: histogram series %s has no _count", k)
		}
		if g.count != g.counts[len(g.counts)-1] {
			return fmt.Errorf("prom: histogram series %s: _count %v != le=\"+Inf\" bucket %v", k, g.count, g.counts[len(g.counts)-1])
		}
	}
	return nil
}
