package hist_test

import (
	"fmt"
	"time"

	"repro/internal/obs/hist"
)

// ExampleRegistry shows the named-histogram pattern: hot sites hold the
// *Histogram they record into, cold sites record by name, and a
// snapshot lists every histogram sorted by name.
func ExampleRegistry() {
	reg := hist.NewRegistry()

	op := reg.Get("sim.op")
	for _, d := range []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 8 * time.Millisecond,
	} {
		op.RecordDuration(d)
	}
	reg.Observe("sim.ac", int64(3*time.Millisecond))

	for _, ns := range reg.Snapshot() {
		s := ns.Snapshot
		fmt.Printf("%s: n=%d min=%v max=%v\n",
			ns.Name, s.Count,
			time.Duration(s.Min), time.Duration(s.Max))
	}
	// Output:
	// sim.ac: n=1 min=3ms max=3ms
	// sim.op: n=3 min=1ms max=8ms
}
