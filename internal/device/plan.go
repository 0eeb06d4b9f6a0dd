package device

import "math"

// planKind selects the equations a StampPlan runs.
type planKind uint8

const (
	planNone planKind = iota
	planNMOS
	planPMOS
	planDiode
)

// StampPlan is the Newton stamp of one MOSFET or diode, precompiled for
// a system of a given dimension n. It holds the flat offsets i·n+j of
// the matrix entries the device's Stamp adds to (−1 where either index
// is ground) and the model constants Stamp derives on every call.
// Running a plan makes the same additions, of the same values, in the
// same order, as Stamp: both evaluate the device through one helper
// (mosEq.companion, diodeEq.companion) and differ only in how they
// address the matrix.
//
// A plan copies the device's model constants and geometry when it is
// built, so they must not change while the plan is in use (DESIGN.md
// §8). The zero StampPlan is not valid and stamps nothing.
type StampPlan struct {
	// k holds β, V_T and λ of a MOSFET (mosEq), or I_S, n·V_T and
	// 40·n·V_T of a diode (diodeEq).
	k [3]float64
	// term holds the resolved terminals: (drain, gate, source) or
	// (anode, cathode, unused).
	term [3]int32
	// off holds the offsets of (d,d), (s,s), (d,s), (s,d), (d,g) and
	// (s,g) for a MOSFET, with d and s the labelled drain and source;
	// (a,a), (k,k), (a,k) and (k,a) for a diode.
	off  [6]int32
	kind planKind
}

// NewStampPlan returns the stamp plan of st for a system of dimension n.
// st must be a MOSFET or diode with resolved terminals; for any other
// device, or a dimension whose offsets overflow int32, ok is false and
// the device keeps stamping itself.
func NewStampPlan(st Stamper, n int) (p StampPlan, ok bool) {
	if int64(n)*int64(n) > math.MaxInt32 {
		return StampPlan{}, false
	}
	switch dev := st.(type) {
	case *MOSFET:
		q := dev.eq()
		d, g, s := dev.idx[0], dev.idx[1], dev.idx[2]
		p = StampPlan{
			k:    [3]float64{q.beta, q.vt, q.lam},
			term: [3]int32{int32(d), int32(g), int32(s)},
			off:  [6]int32{flat(d, d, n), flat(s, s, n), flat(d, s, n), flat(s, d, n), flat(d, g, n), flat(s, g, n)},
			kind: planNMOS,
		}
		if q.pmos {
			p.kind = planPMOS
		}
		return p, true
	case *Diode:
		q := dev.eq()
		a, k := dev.idx[0], dev.idx[1]
		return StampPlan{
			k:    [3]float64{q.is, q.nvt, q.vmax},
			term: [3]int32{int32(a), int32(k), -1},
			off:  [6]int32{flat(a, a, n), flat(k, k, n), flat(a, k, n), flat(k, a, n), -1, -1},
			kind: planDiode,
		}, true
	}
	return StampPlan{}, false
}

// flat returns the offset of entry (i, j) in a row-major n×n matrix, or
// −1 when either index is ground.
func flat(i, j, n int) int32 {
	if i < 0 || j < 0 {
		return -1
	}
	return int32(i*n + j)
}

// Valid reports whether p was built by NewStampPlan.
func (p *StampPlan) Valid() bool { return p.kind != planNone }

// Stamp adds the device's linearized companion at the Newton estimate x
// to the row-major matrix a and right-hand side b of the system the
// plan was built for (mna.System.Buffers), with gmin the convergence
// conductance of the assembly (Context.Gmin).
func (p *StampPlan) Stamp(a, b, x []float64, gmin float64) {
	switch p.kind {
	case planNone:
		return
	case planDiode:
		p.stampDiode(a, b, x, gmin)
		return
	}
	// A MOSFET: MOSFET.Stamp on offsets, that is StampConductance(ed,
	// es, gc), StampVCCS(ed, es, g, es, gm) and StampCurrent(es, ed,
	// cur), entry by entry.
	q := mosEq{beta: p.k[0], vt: p.k[1], lam: p.k[2], pmos: p.kind == planPMOS}
	ed, es := p.term[0], p.term[2]
	gc, gm, cur, swapped := q.companion(volt(x, int(ed)), volt(x, int(p.term[1])), volt(x, int(es)), gmin)
	dd, ss, ds, sd, dg, sg := p.off[0], p.off[1], p.off[2], p.off[3], p.off[4], p.off[5]
	if swapped {
		// The effective drain is the source terminal.
		ed, es = es, ed
		dd, ss, ds, sd, dg, sg = ss, dd, sd, ds, sg, dg
	}
	add(a, dd, gc)
	add(a, ss, gc)
	add(a, ds, -gc)
	add(a, sd, -gc)
	add(a, dg, gm)
	add(a, ds, -gm)
	add(a, sg, -gm)
	add(a, ss, gm)
	add(b, es, -cur)
	add(b, ed, cur)
}

// stampDiode is Diode.Stamp on offsets: StampConductance(a, k, geq) and
// StampCurrent(a, k, ieq).
func (p *StampPlan) stampDiode(a, b, x []float64, gmin float64) {
	q := diodeEq{is: p.k[0], nvt: p.k[1], vmax: p.k[2]}
	an, k := p.term[0], p.term[1]
	geq, ieq := q.companion(volt(x, int(an))-volt(x, int(k)), gmin)
	add(a, p.off[0], geq)
	add(a, p.off[1], geq)
	add(a, p.off[2], -geq)
	add(a, p.off[3], -geq)
	add(b, an, -ieq)
	add(b, k, ieq)
}

// add adds v to s[i] unless i is −1 (ground), like mna.System.Add.
func add(s []float64, i int32, v float64) {
	if i >= 0 {
		s[i] += v
	}
}
