package sim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
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
