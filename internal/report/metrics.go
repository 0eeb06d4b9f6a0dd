package report

import (
	"fmt"
	"io"
	"time"

	"repro/api"
)

// WriteMetrics renders a wire metrics snapshot (api.MetricsSnapshot):
// the per-phase timing table followed by the nominal-cache and
// solver-kernel summary lines. It is the one renderer shared by the
// atpg/experiments -stats flags and by tracereport's run_end metrics
// section; producers convert engine snapshots with repro.WireMetrics.
func WriteMetrics(w io.Writer, m api.MetricsSnapshot) error {
	// Old snapshots (pre-histogram schema) carry no latency data; keep
	// their table narrow instead of printing empty percentile columns.
	withLat := false
	for _, p := range m.Phases {
		if p.Latency != nil && p.Latency.Count > 0 {
			withLat = true
			break
		}
	}
	var t *Table
	if withLat {
		t = NewTable("phase", "units", "wall", "avg/unit", "p50", "p90", "p99", "max")
	} else {
		t = NewTable("phase", "units", "wall", "avg/unit")
	}
	for _, p := range m.Phases {
		if !withLat {
			t.AddRow(p.Name, p.Count,
				time.Duration(p.WallNS).Round(time.Millisecond),
				time.Duration(p.Avg()).Round(time.Microsecond))
			continue
		}
		var p50, p90, p99, max any = "-", "-", "-", "-"
		if l := p.Latency; l != nil && l.Count > 0 {
			p50 = time.Duration(l.P50).Round(time.Microsecond)
			p90 = time.Duration(l.P90).Round(time.Microsecond)
			p99 = time.Duration(l.P99).Round(time.Microsecond)
			max = time.Duration(l.Max).Round(time.Microsecond)
		}
		t.AddRow(p.Name, p.Count,
			time.Duration(p.WallNS).Round(time.Millisecond),
			time.Duration(p.Avg()).Round(time.Microsecond),
			p50, p90, p99, max)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	if len(m.Durations) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		d := NewTable("series", "count", "mean", "p50", "p90", "p99", "max")
		for _, h := range m.Durations {
			if h.Count == 0 {
				continue
			}
			if h.Name == "sim.newton_iters" {
				// A value histogram, not a duration: render plain numbers.
				d.AddRow(h.Name, h.Count, fmt.Sprintf("%.1f", h.Mean()),
					h.P50, h.P90, h.P99, h.Max)
				continue
			}
			d.AddRow(h.Name, h.Count,
				time.Duration(int64(h.Mean())).Round(time.Microsecond),
				time.Duration(h.P50).Round(time.Microsecond),
				time.Duration(h.P90).Round(time.Microsecond),
				time.Duration(h.P99).Round(time.Microsecond),
				time.Duration(h.Max).Round(time.Microsecond))
		}
		if _, err := d.WriteTo(w); err != nil {
			return err
		}
	}
	c := m.Cache
	if _, err := fmt.Fprintf(w,
		"\nnominal cache: %d entries, %.1f %% hit rate (%d hits, %d misses, %d shared flights, %d evictions)\n",
		c.Entries, 100*c.HitRate(), c.Hits, c.Misses, c.Shared, c.Evictions); err != nil {
		return err
	}
	sv := m.Solver
	if _, err := fmt.Fprintf(w,
		"solver kernel: %d solves, %d Newton iterations, %d factorizations (%d reused), %d device stamps, %d base snapshots (%d hits)\n",
		sv.Solves, sv.NewtonIterations, sv.Factorizations, sv.FactorReuses, sv.Stamps, sv.BaseBuilds, sv.BaseHits); err != nil {
		return err
	}
	if sv.FaultyFactorAvoided > 0 {
		if _, err := fmt.Fprintf(w,
			"retained evaluators: %d faulty factorizations avoided\n", sv.FaultyFactorAvoided); err != nil {
			return err
		}
	}
	if sv.RecoveryAttempts > 0 || sv.Recoveries > 0 || m.TaskPanics > 0 {
		if _, err := fmt.Fprintf(w,
			"resilience: %d recovery-ladder attempts (%d rescued solves), %d isolated task panics\n",
			sv.RecoveryAttempts, sv.Recoveries, m.TaskPanics); err != nil {
			return err
		}
	}
	return nil
}
