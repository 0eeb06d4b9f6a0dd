package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/macros"
	"repro/internal/report"
	"repro/internal/testcfg"
)

// Macro2 runs the complete pipeline (generation, compaction, coverage)
// on the second macro type — the single-stage SimpleIVConverter with its
// 44-fault dictionary — validating that nothing in the methodology is
// specific to the paper's case-study netlist.
func (r *Runner) Macro2() error {
	w := r.opts.Out
	golden := macros.SimpleIVConverter()
	cfg := core.DefaultConfig()
	if r.opts.Workers > 0 {
		cfg.Workers = r.opts.Workers
	}
	// Seed boxes keep this cross-check affordable even in full runs; the
	// primary macro carries the grid-box experiments.
	cfg.BoxMode = core.BoxSeed
	s, err := core.NewSession(golden, r.configs, cfg)
	if err != nil {
		return err
	}
	dict := fault.Dictionary(golden, 10e3, 2e3)
	if r.opts.Quick {
		var sub []fault.Fault
		for i, f := range dict {
			if i%4 == 0 {
				sub = append(sub, f)
			}
		}
		dict = sub
	}
	fmt.Fprintf(w, "macro %q: %d nodes, %d faults\n\n", golden.Name(), len(golden.AllNodes()), len(dict))

	sols, err := s.GenerateAll(dict)
	if err != nil {
		return err
	}
	d := s.Tabulate(sols)
	t := report.NewTable("configuration", "bridge", "pinhole")
	for _, id := range d.ConfigIDs() {
		t.AddRow(fmt.Sprintf("#%d %s", id, testcfg.ByID(r.configs, id).Name),
			d.Counts[id][fault.KindBridge], d.Counts[id][fault.KindPinhole])
	}
	t.AddRow("undetectable", d.Undetectable[fault.KindBridge], d.Undetectable[fault.KindPinhole])
	if _, err := t.WriteTo(w); err != nil {
		return err
	}

	opts := core.DefaultCompactOptions()
	opts.Delta = r.opts.Delta
	cts, err := s.Compact(sols, opts)
	if err != nil {
		return err
	}
	cov, err := s.Coverage(core.TestsOfCompact(cts), dict)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncompacted: %d tests, coverage %.1f %% (%d/%d)\n",
		len(cts), cov.Percent(), cov.Detected, cov.Total)
	st := s.Stats()
	fmt.Fprintf(w, "simulation effort: %d nominal + %d faulty runs (%d cache hits, %d served by the analysis memo)\n",
		st.NominalRuns, st.FaultyRuns, st.CacheHits, st.MemoHits)
	return nil
}
