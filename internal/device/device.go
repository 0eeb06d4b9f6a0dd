// Package device implements the circuit elements the simulator knows how
// to stamp into an MNA system: resistors, capacitors, inductors,
// independent and controlled sources, diodes, and the Shichman–Hodges
// (SPICE level-1) MOSFET that the IV-converter macro is built from.
//
// Devices are descriptors plus stamping behaviour. They hold no
// per-simulation state: dynamic elements (C, L) declare how many state
// variables they need and the analysis engine owns the storage, so a
// compiled circuit can be simulated from several goroutines concurrently
// as long as each run owns its own state vector.
package device

import "repro/internal/mna"

// Mode selects the analysis a stamp is being assembled for.
type Mode int

const (
	// OP assembles the DC operating-point system: capacitors open,
	// inductors short, waveform sources at their DC level.
	OP Mode = iota
	// Transient assembles one implicit time step using companion models.
	Transient
)

// Integration selects the implicit integration method for dynamic stamps.
type Integration int

const (
	// BackwardEuler is L-stable and heavily damped; used for the first
	// step after a discontinuity.
	BackwardEuler Integration = iota
	// Trapezoidal is A-stable and second-order; the default.
	Trapezoidal
)

// Context carries per-assembly information into device stamps.
type Context struct {
	Mode Mode
	// Time is the time at the end of the pending step (transient only).
	Time float64
	// Dt is the pending step size (transient only).
	Dt float64
	// Gmin is a convergence-aid conductance stamped across nonlinear
	// junctions. It is ramped down to its floor by gmin stepping.
	Gmin float64
	// SrcScale multiplies every independent source, used by source
	// stepping; 1 in normal operation.
	SrcScale float64
	// Integ is the integration method for dynamic stamps.
	Integ Integration
}

// Device is the minimal descriptor every element implements.
type Device interface {
	// Name returns the instance name (unique within a circuit).
	Name() string
	// TerminalNames returns the node names the device connects to, in
	// declaration order.
	TerminalNames() []string
	// Resolve stores the MNA unknown index for each terminal (-1 for
	// ground), in the same order as TerminalNames. Called by the circuit
	// compiler.
	Resolve(idx []int)
	// Terminals returns the resolved indices (nil before Resolve).
	Terminals() []int
	// Clone returns a deep copy with unresolved state preserved, used for
	// fault insertion and process-corner scaling.
	Clone() Device
}

// Stamper is implemented by devices whose static stamp depends on the
// Newton estimate x — the MOSFET, the diode and the BJT. The engine
// re-stamps them every Newton iteration.
type Stamper interface {
	Stamp(s *mna.System, x []float64, ctx *Context)
}

// LinearStamper is implemented by devices whose static stamps do not
// depend on the Newton estimate x: resistors, independent and controlled
// sources, the inductor's OP short. The engine assembles these once and
// restores the result by copy instead of re-stamping every Newton
// iteration, so the split must uphold the linear-snapshot invariant:
//
//   - StampLinearMatrix may depend only on ctx.Mode (with Dt/Integ fixed
//     by the analysis) — never on Time, SrcScale, or any mutable device
//     parameter, so the matrix snapshot stays valid for a whole analysis;
//   - StampLinearRHS may additionally depend on Time and SrcScale; it is
//     re-assembled once per solve (not per iteration).
//
// A device implements LinearStamper or Stamper, never both.
type LinearStamper interface {
	// StampLinearMatrix adds the x-independent matrix entries.
	StampLinearMatrix(s *mna.System, ctx *Context)
	// StampLinearRHS adds the x-independent right-hand-side entries.
	StampLinearRHS(s *mna.System, ctx *Context)
}

// Dynamic is implemented by energy-storage devices. The engine allocates
// NumStates float64 slots per device and threads them through the phase
// methods.
//
// The companion model comes in two halves. Its conductance pattern
// depends only on the step configuration (Dt, Integ), never on the
// committed state or the Newton estimate — true for every linear
// reactance — so the engine folds StampCompanionMatrix into the cached
// linear matrix snapshot (rebuilt only when Dt or the method changes)
// and re-assembles only the state-dependent StampCompanionRHS once per
// step.
type Dynamic interface {
	// NumStates returns how many state variables the device needs. A
	// device reporting none stores no energy: the engine makes no
	// companion stamps or commits for it.
	NumStates() int
	// InitState fills state from a converged DC solution x.
	InitState(x []float64, state []float64)
	// StampCompanionMatrix adds the companion conductances, a function of
	// ctx.Dt and ctx.Integ only.
	StampCompanionMatrix(s *mna.System, ctx *Context)
	// StampCompanionRHS adds the companion sources computed from the
	// committed state of the previous time point.
	StampCompanionRHS(s *mna.System, state []float64, ctx *Context)
	// Commit updates state from the accepted solution x of the step that
	// ctx describes.
	Commit(x []float64, state []float64, ctx *Context)
}

// Brancher is implemented by devices that need extra MNA branch-current
// unknowns (voltage sources, inductors, VCVS).
type Brancher interface {
	// NumBranches returns how many branch unknowns the device needs.
	NumBranches() int
	// SetBranchBase stores the first branch unknown index assigned by the
	// compiler; the device uses base, base+1, ...
	SetBranchBase(base int)
	// BranchBase returns the assigned base index (-1 before assignment).
	BranchBase() int
}

// ACSplitStamper is implemented by devices that participate in
// small-signal AC analysis. xop is the DC operating point the device
// linearizes around and omega the angular frequency. The stamp comes in
// two halves: the frequency-independent small-signal stamps
// (conductances, transconductances, source patterns — assembled once per
// sweep and restored by copy) and the reactive jω terms added at each
// frequency point. The base contributes only real parts and the reactive
// stamps only imaginary parts of any shared entry, so a sweep point
// equals a full restamp bit for bit.
type ACSplitStamper interface {
	// StampACBase adds the frequency-independent small-signal stamps at
	// the operating point xop.
	StampACBase(s *mna.ComplexSystem, xop []float64)
	// StampACReactive adds the jω-dependent stamps.
	StampACReactive(s *mna.ComplexSystem, xop []float64, omega float64)
}

// Scalable is implemented by devices whose primary parameter can be
// scaled multiplicatively, used by the process-corner machinery
// (resistances, capacitances) — MOSFET models scale through ModelScaler.
type Scalable interface {
	// ScaleValue multiplies the primary parameter by k.
	ScaleValue(k float64)
}

// volt reads the voltage of resolved terminal index i from solution x;
// ground (-1) reads as 0.
func volt(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}

// base carries the descriptor plumbing shared by all devices.
type base struct {
	name  string
	nodes []string
	idx   []int
}

func newBase(name string, nodes ...string) base {
	return base{name: name, nodes: nodes}
}

// Name implements Device.
func (b *base) Name() string { return b.name }

// TerminalNames implements Device.
func (b *base) TerminalNames() []string { return b.nodes }

// Resolve implements Device.
func (b *base) Resolve(idx []int) {
	b.idx = make([]int, len(idx))
	copy(b.idx, idx)
}

// Terminals implements Device.
func (b *base) Terminals() []int { return b.idx }

// cloneBase copies the descriptor; resolved indices are dropped because a
// clone is re-compiled in its new circuit.
func (b *base) cloneBase() base {
	nodes := make([]string, len(b.nodes))
	copy(nodes, b.nodes)
	return base{name: b.name, nodes: nodes}
}

// RenameTerminal rewires terminal slot i to a different node name; used
// by the pinhole fault transform when it splits a transistor channel.
func RenameTerminal(d Device, i int, node string) {
	switch dev := d.(type) {
	case interface{ renameTerminal(int, string) }:
		dev.renameTerminal(i, node)
	default:
		panic("device: RenameTerminal on unsupported device type")
	}
}

func (b *base) renameTerminal(i int, node string) {
	b.nodes[i] = node
	b.idx = nil
}
