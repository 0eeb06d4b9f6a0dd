package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/api"
)

// paper55 is the paper-scale run of EXPERIMENTS.md: the IV-converter,
// all 55 faults × 5 configurations, grid boxes, δ 0.1. No workload runs
// it (it takes about a minute); -pin checks its coverage shape and pins
// its bytes so the slice workloads stay anchored to the real run.
var paper55 = shape{name: "paper55", req: request(api.MacroIVConverter, 0, api.BoxModeGrid, 2, 0.1)}

// paper55Undetected is EXPERIMENTS.md's undetected set.
var paper55Undetected = []string{"bridge:0-Vref", "bridge:Nmir-Out1"}

// writePins recomputes every shape's pin from a single-node in-process
// run in dictionary order, checks that the daemon and the coordinator
// return exactly those bytes for their shapes, checks the paper-scale
// run's coverage against EXPERIMENTS.md, and writes the pin file.
func writePins(ctx context.Context, o options, path string) error {
	pins := make(map[string]string)
	for _, w := range workloads {
		for _, sh := range append(append([]shape(nil), w.full...), w.smoke...) {
			run, err := runLocal(ctx, sh, nil, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", sh.name, err)
			}
			pins[sh.name] = digest(run.body)
			fmt.Fprintf(o.log, "%-14s %s\n", sh.name, pins[sh.name])
		}
	}

	dir, err := os.MkdirTemp(mkdirAll(o.scratch), "pin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }
	for _, w := range workloads {
		if w.kind == local {
			continue
		}
		svc, err := boot(w, filepath.Join(dir, w.name))
		if err != nil {
			return err
		}
		for _, sh := range append(append([]shape(nil), w.full...), w.smoke...) {
			j, err := svc.job(ctx, sh.req, clock)
			if err == nil {
				err = verify(pins, sh.name, j.body)
			}
			if err != nil {
				svc.close()
				return fmt.Errorf("%s through %s: %w", sh.name, w.name, err)
			}
		}
		svc.close()
		fmt.Fprintf(o.log, "%s: daemon results match the single-node pins\n", w.name)
	}

	run, err := runLocal(ctx, paper55, nil, nil)
	if err != nil {
		return fmt.Errorf("paper55: %w", err)
	}
	var res api.JobResult
	if err := json.Unmarshal(run.body, &res); err != nil {
		return fmt.Errorf("paper55: %w", err)
	}
	if c := res.Coverage; c.Detected != 53 || c.Total != 55 || !slices.Equal(c.Undetected, paper55Undetected) {
		return fmt.Errorf("paper55: coverage %d/%d, undetected %v; EXPERIMENTS.md has 53/55, %v",
			c.Detected, c.Total, c.Undetected, paper55Undetected)
	}
	pins[paper55.name] = digest(run.body)
	fmt.Fprintf(o.log, "paper55        %s (53/55 covered, %d compacted tests)\n", pins[paper55.name], len(res.Tests))

	buf, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
