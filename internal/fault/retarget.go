package fault

// Retargetable is the optional interface of faults whose impact is the
// resistance of one resistor that Insert adds. Such a fault can be
// inserted once and then moved along the impact ladder by setting that
// resistor (sim.Engine.Retarget), which gives the same circuit as
// inserting the fault afresh at the new impact: the retained-evaluator
// fast path in internal/core rests on this.
//
// A bridge's impact is its bridging resistor and a pinhole's its
// gate→split shunt. Opens deliberately do not implement the interface:
// their series insertion rewires a terminal onto a new node, which is a
// structural change, and they exercise the throwaway path.
type Retargetable interface {
	Fault
	// ImpactDevice returns the name of the resistor Insert adds whose
	// resistance equals the fault's impact.
	ImpactDevice() string
}

// ImpactDevice implements Retargetable: the bridge resistor Insert
// appends.
func (b *Bridge) ImpactDevice() string { return "FB_" + b.NodeA + "_" + b.NodeB }

// ImpactDevice implements Retargetable: the gate→split shunt resistor.
func (p *Pinhole) ImpactDevice() string { return "FP_" + p.Transistor }
