package sim

import (
	"fmt"

	"repro/internal/device"
)

// Retarget sets the resistance of the named resistor and invalidates the
// engine's linear snapshots, so the next solve restamps from the updated
// value. This is the sanctioned way to vary one resistor on a live
// engine (the impact ladder's per-step mutation): results are
// bit-identical to building a fresh engine on an identically valued
// circuit, because the restamp replays the same devices in the same
// order from a zeroed matrix.
func (e *Engine) Retarget(name string, r float64) error {
	d := e.ckt.Device(name)
	if d == nil {
		return fmt.Errorf("sim: retarget: device %q not found", name)
	}
	res, ok := d.(*device.Resistor)
	if !ok {
		return fmt.Errorf("sim: retarget: device %q is a %T, want resistor", name, d)
	}
	if res.R == r {
		// Nothing changes; keep every snapshot and factorization warm.
		return nil
	}
	if err := res.SetResistance(r); err != nil {
		return err
	}
	for i := range e.baseOK {
		e.baseOK[i] = false
	}
	return nil
}
