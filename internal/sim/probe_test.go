package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/macros"
	"repro/internal/wave"
)

// TestProbe: engines on several goroutines sharing a probe sum into it
// exactly while it is read, every analysis records one wall-time entry,
// one iteration entry and one hook call, and an engine without a probe
// leaves it untouched.
func TestProbe(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	p := NewProbe(func(analysis string, _ time.Duration, _ Counters) {
		mu.Lock()
		calls[analysis]++
		mu.Unlock()
	})
	divider := func() *circuit.Circuit {
		c := circuit.New("div")
		c.Add(device.NewDCVSource("V1", "in", "0", 10))
		c.Add(device.NewResistor("R1", "in", "mid", 1e3))
		c.Add(device.NewResistor("R2", "mid", "0", 3e3))
		return c
	}
	opts := DefaultOptions()
	opts.Probe = p

	const engines = 4
	var want Counters
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = p.Counters(), p.Histograms()
			}
		}
	}()
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := New(divider(), opts)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.OperatingPoint(); err != nil {
				t.Error(err)
			}
			if _, err := e.SweepDC("V1", []float64{1, 2, 3}); err != nil {
				t.Error(err)
			}
			mu.Lock()
			want.Add(e.Stats())
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stop)
	unobserved := newEngine(t, divider())
	if _, err := unobserved.OperatingPoint(); err != nil {
		t.Fatal(err)
	}

	if got := p.Counters(); got != want {
		t.Errorf("probe counters %+v, want the engines' sum %+v", got, want)
	}
	// Each engine ran one op, one dc-sweep and the sweep's first point as
	// a nested op.
	wantCounts := map[string]uint64{"sim.op": 2 * engines, "sim.dc-sweep": engines, "sim.newton_iters": 3 * engines}
	hs := p.Histograms()
	if len(hs) != len(wantCounts) {
		t.Fatalf("histograms %v, want %v", hs, wantCounts)
	}
	for _, h := range hs {
		if h.Count != wantCounts[h.Name] {
			t.Errorf("%s count %d, want %d", h.Name, h.Count, wantCounts[h.Name])
		}
	}
	if calls["op"] != 2*engines || calls["dc-sweep"] != engines || len(calls) != 2 {
		t.Errorf("hook calls %v, want op:%d dc-sweep:%d", calls, 2*engines, engines)
	}

	var nilProbe *Probe
	nilProbe.Add(Counters{Solves: 1})
	if nilProbe.Counters() != (Counters{}) || nilProbe.Histograms() != nil {
		t.Error("nil probe observed something")
	}
}

// exitCase runs analyses that leave by one of the exit paths a probe
// must account for. run builds its engines with opts and calls after
// once each analysis has returned.
type exitCase struct {
	name string
	run  func(opts Options, after func(*Engine)) error
}

func exitCases() []exitCase {
	return []exitCase{
		{"transient fails after 8 subdivisions", func(opts Options, after func(*Engine)) error {
			// A 100-V ideal step: clamped to 0.5 V per Newton iteration,
			// the input node needs 200 iterations to follow it, more
			// than MaxIter allows however finely the step is divided.
			c := circuit.New("hard-step")
			c.Add(device.NewVSource("V1", "in", "0", wave.Step{Elev: 100, Delay: 2.5e-9}))
			c.Add(device.NewResistor("R1", "in", "out", 1e3))
			c.Add(device.NewCapacitor("C1", "out", "0", 1e-12))
			e, err := New(c, opts)
			if err != nil {
				return err
			}
			_, err = e.Transient(5e-9, 1e-9, []string{"out"})
			after(e)
			if !errors.Is(err, ErrNoConvergence) || !strings.Contains(err.Error(), "t=3e-09") {
				return fmt.Errorf("transient error %v, want ErrNoConvergence at the third step", err)
			}
			return nil
		}},
		{"operating point exhausts the recovery ladder", func(opts Options, after func(*Engine)) error {
			opts.MaxIter = 1
			opts.Recovery = []Relaxation{{TolScale: 1, MaxIter: 2}, {TolScale: 100, MaxIter: 3}}
			e, err := New(macros.IVConverter(), opts)
			if err != nil {
				return err
			}
			_, err = e.OperatingPoint()
			after(e)
			if !errors.Is(err, ErrNoConvergence) || e.Stats().RecoveryAttempts != 2 {
				return fmt.Errorf("error %v after %d rungs, want ErrNoConvergence after 2", err, e.Stats().RecoveryAttempts)
			}
			return nil
		}},
		{"transient", func(opts Options, after func(*Engine)) error {
			e, err := New(macros.IVConverter(), opts)
			if err != nil {
				return err
			}
			_, err = e.Transient(20e-9, 1e-9, []string{macros.NodeVout})
			after(e)
			return err
		}},
	}
}

// TestProbeExactOnEveryExit: an engine flushes its counters into its
// probe once per analysis, and after every analysis — failed partway,
// failed after a recovery ladder, or successful — the probe holds exactly the engine's counters.
func TestProbeExactOnEveryExit(t *testing.T) {
	for _, c := range exitCases() {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Probe = NewProbe(nil)
			analyses := 0
			err := c.run(opts, func(e *Engine) {
				analyses++
				if got, want := opts.Probe.Counters(), e.Stats(); got != want {
					t.Errorf("after analysis %d: probe counters %+v, engine %+v", analyses, got, want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestProbeExactOnEveryExitShared runs every exit case on 4 goroutines
// whose engines share one probe: the probe ends up with exactly the sum
// of the engines' counters.
func TestProbeExactOnEveryExitShared(t *testing.T) {
	opts := DefaultOptions()
	opts.Probe = NewProbe(nil)
	var mu sync.Mutex
	var want Counters
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range exitCases() {
				var last *Engine
				if err := c.run(opts, func(e *Engine) { last = e }); err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				mu.Lock()
				want.Add(last.Stats())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := opts.Probe.Counters(); got != want {
		t.Errorf("probe counters %+v, want the engines' sum %+v", got, want)
	}
}
