package netlist

import (
	"fmt"
	"strings"
)

// Subcircuit support: SPICE-style .subckt / .ends definitions and X
// instantiation lines. Instances are flattened at parse time — internal
// nodes and device names are prefixed with the instance path
// ("X1.node"), ports are substituted with the caller's nets, and nested
// subcircuits expand recursively up to a fixed depth and a fixed flattened
// size.
//
//	.subckt NAME port1 port2 ...
//	R1 port1 n1 10k        ; n1 is internal -> X?.n1
//	.ends
//	X1 netA netB NAME      ; instantiates NAME with ports bound
//
// The flattening prefix uses '.' which is an ordinary character in node
// names everywhere else in this package.

const maxSubcktDepth = 16

// maxFlatLines bounds the flattened netlist: nested instances multiply,
// so a few lines of subcircuits could otherwise expand beyond memory.
const maxFlatLines = 1 << 16

// elementKind returns the element letter of a (possibly instance-
// prefixed) device name: "X1.R5" -> "R".
func elementKind(name string) string {
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	if name == "" {
		return ""
	}
	return strings.ToUpper(name[:1])
}

type subckt struct {
	name  string
	ports []string
	lines []string // raw body device lines
}

// extractSubckts splits body lines into subcircuit definitions and
// the remaining top-level lines. Input lines carry a "lineno " prefix.
func extractSubckts(lines []string) (map[string]*subckt, []string, error) {
	defs := make(map[string]*subckt)
	var top []string
	var cur *subckt
	for _, l := range lines {
		n, body, _ := strings.Cut(l, " ")
		low := strings.ToLower(body)
		switch {
		case strings.HasPrefix(low, ".subckt"):
			if cur != nil {
				return nil, nil, fmt.Errorf("line %s: nested .subckt definition", n)
			}
			fields := strings.Fields(body)
			if len(fields) < 3 {
				return nil, nil, fmt.Errorf("line %s: .subckt needs a name and at least one port", n)
			}
			cur = &subckt{name: strings.ToLower(fields[1]), ports: fields[2:]}
		case strings.HasPrefix(low, ".ends"):
			if cur == nil {
				return nil, nil, fmt.Errorf("line %s: .ends without .subckt", n)
			}
			if _, dup := defs[cur.name]; dup {
				return nil, nil, fmt.Errorf("line %s: duplicate subcircuit %q", n, cur.name)
			}
			defs[cur.name] = cur
			cur = nil
		default:
			// .model cards are global even when written inside a
			// definition; hoist them so instances can reference them.
			if cur != nil && !strings.HasPrefix(low, ".model") {
				cur.lines = append(cur.lines, l)
			} else {
				top = append(top, l)
			}
		}
	}
	if cur != nil {
		return nil, nil, fmt.Errorf("unterminated .subckt %q", cur.name)
	}
	return defs, top, nil
}

// expandInstances replaces X lines with prefixed copies of their
// subcircuit bodies, recursively.
func expandInstances(lines []string, defs map[string]*subckt, depth int) ([]string, error) {
	if depth > maxSubcktDepth {
		return nil, fmt.Errorf("subcircuit nesting deeper than %d (recursive definition?)", maxSubcktDepth)
	}
	var out []string
	for _, l := range lines {
		n, body, _ := strings.Cut(l, " ")
		fields := strings.Fields(body)
		if len(fields) == 0 || elementKind(fields[0]) != "X" {
			out = append(out, l)
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %s: X line needs nets and a subcircuit name", n)
		}
		instName := fields[0]
		subName := strings.ToLower(fields[len(fields)-1])
		nets := fields[1 : len(fields)-1]
		def, ok := defs[subName]
		if !ok {
			return nil, fmt.Errorf("line %s: unknown subcircuit %q", n, subName)
		}
		if len(nets) != len(def.ports) {
			return nil, fmt.Errorf("line %s: %s has %d nets for %d ports of %q",
				n, instName, len(nets), len(def.ports), subName)
		}
		bind := make(map[string]string, len(def.ports))
		for i, p := range def.ports {
			bind[p] = nets[i]
		}
		for _, bl := range def.lines {
			bn, bbody, _ := strings.Cut(bl, " ")
			rewritten, err := prefixLine(bbody, instName, bind)
			if err != nil {
				return nil, fmt.Errorf("line %s (in %s): %w", bn, instName, err)
			}
			out = append(out, bn+" "+rewritten)
		}
		if len(out) > maxFlatLines {
			return nil, fmt.Errorf("line %s: subcircuit expansion exceeds %d lines", n, maxFlatLines)
		}
	}
	// Another pass if any X lines came out of the expansion.
	for _, l := range out {
		_, body, _ := strings.Cut(l, " ")
		f := strings.Fields(body)
		if len(f) > 0 && elementKind(f[0]) == "X" {
			return expandInstances(out, defs, depth+1)
		}
	}
	return out, nil
}

// prefixLine rewrites one body line of a subcircuit for an instance:
// the device name and every internal node get the instance prefix, port
// nodes map to the bound nets, and ground stays ground.
func prefixLine(body, inst string, bind map[string]string) (string, error) {
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return body, nil
	}
	kind := elementKind(fields[0])
	nodeCount, ok := terminalCount[kind]
	if !ok {
		return "", fmt.Errorf("unsupported element %q inside subcircuit", fields[0])
	}
	if kind == "X" {
		// Keep X lines but rewrite their nets; the next expansion pass
		// resolves them.
		nodeCount = len(fields) - 2
	}
	if len(fields) < 1+nodeCount {
		return "", fmt.Errorf("element %q has too few terminals", fields[0])
	}
	out := make([]string, len(fields))
	out[0] = inst + "." + fields[0]
	for i := 1; i <= nodeCount; i++ {
		out[i] = mapNode(fields[i], inst, bind)
	}
	copy(out[1+nodeCount:], fields[1+nodeCount:])
	return strings.Join(out, " "), nil
}

// terminalCount maps element kinds to their node-argument counts.
var terminalCount = map[string]int{
	"R": 2, "C": 2, "L": 2, "D": 2, "V": 2, "I": 2,
	"E": 4, "G": 4, "M": 3, "Q": 3, "X": -1,
}

func mapNode(node, inst string, bind map[string]string) string {
	if bound, ok := bind[node]; ok {
		return bound
	}
	if isGroundName(node) {
		return "0"
	}
	return inst + "." + node
}

func isGroundName(n string) bool {
	switch n {
	case "0", "gnd", "GND", "":
		return true
	}
	return false
}
