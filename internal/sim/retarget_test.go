package sim

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/wave"
)

// lrLadder is a linear resistive ladder with a capacitor; the bridge
// fault is inserted by the test via fault.Bridge, so the test exercises
// the fault→sim integration end to end.
func lrLadder() *circuit.Circuit {
	c := circuit.New("lr-ladder")
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	c.Add(device.NewISource("Iin", node(1), "0", wave.DC(1e-3)))
	for i := 1; i < 8; i++ {
		c.Add(device.NewResistor(fmt.Sprintf("Rs%d", i), node(i), node(i+1), 1e3))
	}
	for i := 1; i <= 8; i++ {
		c.Add(device.NewResistor(fmt.Sprintf("Rp%d", i), node(i), "0", 10e3))
	}
	c.Add(device.NewCapacitor("C1", node(4), "0", 1e-9))
	return c
}

// TestRetargetInvalidatesBases: on a retained engine the restamping solve
// after Retarget must be bit-identical to a fresh engine built on an
// identically valued circuit — the contract the core fast path's
// bit-identity rests on.
func TestRetargetInvalidatesBases(t *testing.T) {
	f := fault.NewBridge("n2", "n6", 10e3)
	fc, err := f.Insert(lrLadder())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(fc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OperatingPoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Retarget(f.ImpactDevice(), 44e3); err != nil {
		t.Fatal(err)
	}
	got, err := eng.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}

	ff := f.WithImpact(44e3)
	rc, err := ff.Insert(lrLadder())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(rc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retargeted engine x[%d] = %g, fresh engine %g — must be bit-identical", i, got[i], want[i])
		}
	}

	if err := eng.Retarget("nope", 1); err == nil {
		t.Error("retargeting an unknown device must fail")
	}
	if err := eng.Retarget(f.ImpactDevice(), -5); err == nil {
		t.Error("retargeting to a negative resistance must fail")
	}
}
