// Package circuit assembles devices into a netlist, resolves node names
// onto MNA unknown indices, and offers the cloning and editing operations
// the fault-insertion and process-corner machinery relies on.
//
// A Circuit is a mutable builder. Compile freezes the current node and
// branch numbering into every device and returns the layout, after which
// the circuit can be handed to the analyses in internal/sim. Clones are
// deep: devices, models and node bookkeeping are all copied, so faulty
// and corner variants never alias the golden netlist.
package circuit

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/device"
)

// GroundAliases are the node names treated as the reference node.
var GroundAliases = map[string]bool{"0": true, "gnd": true, "GND": true, "": true}

// Circuit is a named collection of devices plus the node table built from
// their terminals.
type Circuit struct {
	name    string
	devices []device.Device
	byName  map[string]device.Device

	// Layout, valid after Compile.
	nodeIndex map[string]int // node name -> unknown index, ground absent
	nodeNames []string       // index -> name (non-ground nodes, sorted)
	branches  int
	compiled  bool
}

// New returns an empty circuit.
func New(name string) *Circuit {
	return &Circuit{
		name:   name,
		byName: make(map[string]device.Device),
	}
}

// Name returns the circuit name.
func (c *Circuit) Name() string { return c.name }

// Add inserts a device. It panics on duplicate instance names — netlists
// are built programmatically and a duplicate is a programming error.
func (c *Circuit) Add(d device.Device) {
	if _, dup := c.byName[d.Name()]; dup {
		panic(fmt.Sprintf("circuit %s: duplicate device %q", c.name, d.Name()))
	}
	c.devices = append(c.devices, d)
	c.byName[d.Name()] = d
	c.compiled = false
}

// Remove deletes the named device; it reports whether it was present.
func (c *Circuit) Remove(name string) bool {
	d, ok := c.byName[name]
	if !ok {
		return false
	}
	delete(c.byName, name)
	for i, dd := range c.devices {
		if dd == d {
			c.devices = append(c.devices[:i], c.devices[i+1:]...)
			break
		}
	}
	c.compiled = false
	return true
}

// Device returns the named device, or nil.
func (c *Circuit) Device(name string) device.Device { return c.byName[name] }

// Devices returns the devices in insertion order. The slice is shared;
// callers must not mutate it.
func (c *Circuit) Devices() []device.Device { return c.devices }

// Clone returns a deep copy of the circuit (devices cloned, layout
// discarded). The clone can be edited and compiled independently.
func (c *Circuit) Clone() *Circuit {
	cc := New(c.name)
	for _, d := range c.devices {
		cc.Add(d.Clone())
	}
	return cc
}

// IsGround reports whether the node name refers to the reference node.
func IsGround(node string) bool { return GroundAliases[node] }

// Nodes returns the sorted non-ground node names referenced by the
// current devices (available without compiling).
func (c *Circuit) Nodes() []string {
	seen := make(map[string]bool)
	for _, d := range c.devices {
		for _, n := range d.TerminalNames() {
			if !IsGround(n) {
				seen[n] = true
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AllNodes returns the non-ground nodes plus the ground name "0", the
// universe the exhaustive bridging-fault generator enumerates pairs from.
func (c *Circuit) AllNodes() []string {
	return append([]string{"0"}, c.Nodes()...)
}

// Layout describes the compiled unknown vector: node voltages first, then
// source/inductor branch currents.
type Layout struct {
	// NodeIndex maps non-ground node names to unknown indices.
	NodeIndex map[string]int
	// NodeNames lists node names by unknown index.
	NodeNames []string
	// NumNodes is the count of non-ground nodes.
	NumNodes int
	// NumBranches is the count of branch-current unknowns.
	NumBranches int
}

// Dim returns the total unknown count.
func (l *Layout) Dim() int { return l.NumNodes + l.NumBranches }

// Compile resolves every device terminal to an unknown index, assigns
// branch unknowns, and returns the layout. It is idempotent and must be
// re-run after structural edits.
func (c *Circuit) Compile() (*Layout, error) {
	names := c.Nodes()
	c.nodeNames = names
	c.nodeIndex = make(map[string]int, len(names))
	for i, n := range names {
		c.nodeIndex[n] = i
	}
	branch := len(names)
	for _, d := range c.devices {
		terms := d.TerminalNames()
		idx := make([]int, len(terms))
		for i, t := range terms {
			if IsGround(t) {
				idx[i] = -1
				continue
			}
			idx[i] = c.nodeIndex[t]
		}
		d.Resolve(idx)
		if br, ok := d.(device.Brancher); ok {
			br.SetBranchBase(branch)
			branch += br.NumBranches()
		}
	}
	c.branches = branch - len(names)
	c.compiled = true
	if err := c.check(); err != nil {
		return nil, err
	}
	return c.Layout(), nil
}

// Layout returns the current layout; Compile must have succeeded.
func (c *Circuit) Layout() *Layout {
	if !c.compiled {
		panic(fmt.Sprintf("circuit %s: Layout before Compile", c.name))
	}
	idx := make(map[string]int, len(c.nodeIndex))
	for k, v := range c.nodeIndex {
		idx[k] = v
	}
	names := make([]string, len(c.nodeNames))
	copy(names, c.nodeNames)
	return &Layout{
		NodeIndex:   idx,
		NodeNames:   names,
		NumNodes:    len(names),
		NumBranches: c.branches,
	}
}

// NodeVoltage reads node's voltage out of a solution vector; ground reads
// as 0. It panics on unknown node names.
func (c *Circuit) NodeVoltage(x []float64, node string) float64 {
	if IsGround(node) {
		return 0
	}
	i, ok := c.nodeIndex[node]
	if !ok {
		panic(fmt.Sprintf("circuit %s: unknown node %q", c.name, node))
	}
	return x[i]
}

// HasNode reports whether the node name exists (or is ground). It
// scans the device terminals, so it needs no compile and allocates
// nothing.
func (c *Circuit) HasNode(node string) bool {
	if IsGround(node) {
		return true
	}
	for _, d := range c.devices {
		if slices.Contains(d.TerminalNames(), node) {
			return true
		}
	}
	return false
}

// check performs structural sanity checks after compilation: every
// non-ground node needs at least two device connections (a dangling node
// makes the MNA matrix singular), and the circuit needs a ground
// reference somewhere.
func (c *Circuit) check() error {
	if len(c.devices) == 0 {
		return fmt.Errorf("circuit %s: empty", c.name)
	}
	grounded := false
	degree := make(map[string]int)
	for _, d := range c.devices {
		for _, n := range d.TerminalNames() {
			if IsGround(n) {
				grounded = true
				continue
			}
			degree[n]++
		}
	}
	if !grounded {
		return fmt.Errorf("circuit %s: no ground reference", c.name)
	}
	var dangling []string
	for n, deg := range degree {
		if deg < 2 {
			dangling = append(dangling, n)
		}
	}
	if len(dangling) > 0 {
		sort.Strings(dangling)
		return fmt.Errorf("circuit %s: dangling nodes %v", c.name, dangling)
	}
	return nil
}

// String renders a netlist-style summary, one device per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "* circuit %s (%d devices, %d nodes)\n", c.name, len(c.devices), len(c.Nodes()))
	for _, d := range c.devices {
		fmt.Fprintf(&b, "%-8s %s\n", d.Name(), strings.Join(d.TerminalNames(), " "))
	}
	return b.String()
}
