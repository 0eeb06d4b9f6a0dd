// Package netlist parses a SPICE-like textual netlist into a circuit, so
// custom macros can be fed to the test generator without writing Go.
//
// Supported syntax (one element per line, case-insensitive keywords):
//
//   - comment                 ; also "; comment"
//     .title anything
//     .model NAME nmos|pmos [vt0=..] [kp=..] [lambda=..]
//     Rxxx n1 n2 value
//     Cxxx n1 n2 value
//     Lxxx n1 n2 value
//     Dxxx anode cathode [is=..] [n=..]
//     Vxxx n+ n- <source>
//     Ixxx n+ n- <source>
//     Exxx n+ n- nc+ nc- gain          ; VCVS
//     Gxxx n+ n- nc+ nc- gm            ; VCCS
//     Mxxx d g s MODELNAME [w=..] [l=..]
//     .end                      ; optional
//
// where <source> is a bare number (DC), "dc v", "sin(off amp freq)",
// "step(base elev delay rise)", "pulse(lo hi delay rise fall width
// period)" or "pwl(t1 v1 t2 v2 ...)". Values accept SI suffixes
// (f p n u m k meg g t) as in SPICE.
//
// Device names must be unique, and R, C and L values, MOSFET w and l,
// and BJT model is, bf and br must be positive; Parse reports a
// line-numbered error for any that are not.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/wave"
)

// Parse reads a netlist and builds the circuit. The name is used for the
// circuit when no .title line is present.
func Parse(r io.Reader, name string) (*circuit.Circuit, error) {
	p := &parser{
		models:    make(map[string]*device.MOSModel),
		bjtModels: make(map[string]*device.BJTModel),
		name:      name,
	}
	scanner := bufio.NewScanner(r)
	lineno := 0
	var lines []string
	for scanner.Scan() {
		lineno++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, ";") {
			continue
		}
		if i := strings.Index(line, ";"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		lines = append(lines, fmt.Sprintf("%d %s", lineno, line))
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	// Flatten subcircuits before anything else.
	defs, top, err := extractSubckts(lines)
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	lines, err = expandInstances(top, defs, 0)
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	// First pass: models and title, so device lines can reference models
	// defined later in the file.
	var deviceLines []string
	for _, l := range lines {
		n, body, _ := strings.Cut(l, " ")
		low := strings.ToLower(body)
		switch {
		case strings.HasPrefix(low, ".model"):
			if err := p.parseModel(body); err != nil {
				return nil, fmt.Errorf("netlist line %s: %w", n, err)
			}
		case strings.HasPrefix(low, ".title"):
			p.name = strings.TrimSpace(body[len(".title"):])
		case strings.HasPrefix(low, ".end"):
			// ignore
		default:
			deviceLines = append(deviceLines, l)
		}
	}
	c := circuit.New(p.name)
	for _, l := range deviceLines {
		n, body, _ := strings.Cut(l, " ")
		if err := p.parseDevice(c, body); err != nil {
			return nil, fmt.Errorf("netlist line %s: %w", n, err)
		}
	}
	return c, nil
}

// ParseString is Parse over a string.
func ParseString(s, name string) (*circuit.Circuit, error) {
	return Parse(strings.NewReader(s), name)
}

type parser struct {
	models    map[string]*device.MOSModel
	bjtModels map[string]*device.BJTModel
	name      string
}

// ParseValue converts a SPICE-style number with optional SI suffix
// ("50k", "2p", "1meg", "10u") to a float64.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	// Split the trailing alphabetic suffix.
	i := len(s)
	for i > 0 {
		ch := s[i-1]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == '+' || ch == '-' {
			break
		}
		i--
	}
	num, suffix := s[:i], s[i:]
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	switch suffix {
	case "", "v", "a", "s", "hz", "ohm", "f0": // bare units ignored
		return v, nil
	case "f":
		return v * 1e-15, nil
	case "p":
		return v * 1e-12, nil
	case "n":
		return v * 1e-9, nil
	case "u", "µ":
		return v * 1e-6, nil
	case "m":
		return v * 1e-3, nil
	case "k":
		return v * 1e3, nil
	case "meg":
		return v * 1e6, nil
	case "g":
		return v * 1e9, nil
	case "t":
		return v * 1e12, nil
	default:
		// Allow unit tails after the scale letter, e.g. "50kohm", "10uF".
		for _, pre := range []struct {
			s string
			m float64
		}{{"meg", 1e6}, {"f", 1e-15}, {"p", 1e-12}, {"n", 1e-9}, {"u", 1e-6}, {"m", 1e-3}, {"k", 1e3}, {"g", 1e9}, {"t", 1e12}} {
			if strings.HasPrefix(suffix, pre.s) {
				return v * pre.m, nil
			}
		}
		return 0, fmt.Errorf("unknown suffix %q in %q", suffix, s)
	}
}

func (p *parser) parseModel(body string) error {
	fields := strings.Fields(body)
	if len(fields) < 3 {
		return fmt.Errorf(".model needs a name and a type")
	}
	name := strings.ToLower(fields[1])
	typ := strings.ToLower(fields[2])
	switch typ {
	case "nmos", "pmos":
		m := device.DefaultNMOSModel()
		if typ == "pmos" {
			m = device.DefaultPMOSModel()
		}
		for _, kv := range fields[3:] {
			k, v, ok := strings.Cut(strings.ToLower(kv), "=")
			if !ok {
				return fmt.Errorf("bad model parameter %q", kv)
			}
			val, err := ParseValue(v)
			if err != nil {
				return err
			}
			switch k {
			case "vt0", "vto":
				m.VT0 = val
			case "kp":
				m.KP = val
			case "lambda":
				m.Lambda = val
			case "cox":
				m.Cox = val
			case "cgso":
				m.CGSO = val
			case "cgdo":
				m.CGDO = val
			default:
				return fmt.Errorf("unknown model parameter %q", k)
			}
		}
		p.models[name] = m
	case "npn", "pnp":
		m := device.DefaultNPNModel()
		if typ == "pnp" {
			m = device.DefaultPNPModel()
		}
		for _, kv := range fields[3:] {
			k, v, ok := strings.Cut(strings.ToLower(kv), "=")
			if !ok {
				return fmt.Errorf("bad model parameter %q", kv)
			}
			val, err := ParseValue(v)
			if err != nil {
				return err
			}
			switch k {
			case "is":
				m.IS = val
			case "bf":
				m.BF = val
			case "br":
				m.BR = val
			default:
				return fmt.Errorf("unknown BJT model parameter %q", k)
			}
		}
		if m.IS <= 0 || m.BF <= 0 || m.BR <= 0 {
			return fmt.Errorf("BJT model %s: is=%g, bf=%g and br=%g must be positive", name, m.IS, m.BF, m.BR)
		}
		p.bjtModels[name] = m
	default:
		return fmt.Errorf("unsupported model type %q", typ)
	}
	return nil
}

// parseSource interprets the tail of a V/I line as a waveform.
func parseSource(fields []string) (wave.Waveform, error) {
	if len(fields) == 0 {
		return wave.DC(0), nil
	}
	// Re-join so "sin( a b c )" and "sin(a b c)" both work.
	s := strings.ToLower(strings.Join(fields, " "))
	if strings.HasPrefix(s, "dc ") {
		v, err := ParseValue(strings.TrimSpace(s[3:]))
		return wave.DC(v), err
	}
	if open := strings.Index(s, "("); open >= 0 {
		kind := strings.TrimSpace(s[:open])
		closeIdx := strings.LastIndex(s, ")")
		if closeIdx < open {
			return nil, fmt.Errorf("unbalanced parentheses in source %q", s)
		}
		args := strings.FieldsFunc(s[open+1:closeIdx], func(r rune) bool { return r == ' ' || r == ',' })
		vals := make([]float64, len(args))
		for i, a := range args {
			v, err := ParseValue(a)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		get := func(i int, def float64) float64 {
			if i < len(vals) {
				return vals[i]
			}
			return def
		}
		switch kind {
		case "dc":
			if len(vals) < 1 {
				return nil, fmt.Errorf("dc() needs a value")
			}
			return wave.DC(vals[0]), nil
		case "sin", "sine":
			if len(vals) < 3 {
				return nil, fmt.Errorf("sin() needs offset, amplitude, freq")
			}
			return wave.Sine{Offset: vals[0], Amplitude: vals[1], Freq: vals[2], Phase: get(3, 0)}, nil
		case "step":
			if len(vals) < 2 {
				return nil, fmt.Errorf("step() needs base, elev")
			}
			return wave.Step{Base: vals[0], Elev: vals[1], Delay: get(2, 0), Rise: get(3, 0)}, nil
		case "pulse":
			if len(vals) < 2 {
				return nil, fmt.Errorf("pulse() needs low, high")
			}
			return wave.Pulse{Low: vals[0], High: vals[1], Delay: get(2, 0), Rise: get(3, 0),
				Fall: get(4, 0), Width: get(5, 0), Period: get(6, 0)}, nil
		case "pwl":
			if len(vals)%2 != 0 || len(vals) == 0 {
				return nil, fmt.Errorf("pwl() needs time/value pairs")
			}
			pts := make([]wave.Point, len(vals)/2)
			for i := range pts {
				pts[i] = wave.Point{T: vals[2*i], V: vals[2*i+1]}
			}
			return wave.NewPWL(pts...), nil
		default:
			return nil, fmt.Errorf("unknown source kind %q", kind)
		}
	}
	v, err := ParseValue(s)
	return wave.DC(v), err
}

func (p *parser) parseDevice(c *circuit.Circuit, body string) error {
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return nil
	}
	name := fields[0]
	if c.Device(name) != nil {
		return fmt.Errorf("duplicate device name %q", name)
	}
	kind := elementKind(name)
	args := fields[1:]
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("device %s needs %d arguments", name, n)
		}
		return nil
	}
	switch kind {
	case "R", "C", "L":
		if err := need(3); err != nil {
			return err
		}
		v, err := ParseValue(args[2])
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("device %s: value %s must be positive", name, args[2])
		}
		switch kind {
		case "R":
			c.Add(device.NewResistor(name, args[0], args[1], v))
		case "C":
			c.Add(device.NewCapacitor(name, args[0], args[1], v))
		case "L":
			c.Add(device.NewInductor(name, args[0], args[1], v))
		}
	case "D":
		if err := need(2); err != nil {
			return err
		}
		m := device.DefaultDiodeModel()
		for _, kv := range args[2:] {
			k, v, ok := strings.Cut(strings.ToLower(kv), "=")
			if !ok {
				return fmt.Errorf("bad diode parameter %q", kv)
			}
			val, err := ParseValue(v)
			if err != nil {
				return err
			}
			switch k {
			case "is":
				m.IS = val
			case "n":
				m.N = val
			default:
				return fmt.Errorf("unknown diode parameter %q", k)
			}
		}
		c.Add(device.NewDiode(name, args[0], args[1], m))
	case "V", "I":
		if err := need(2); err != nil {
			return err
		}
		w, err := parseSource(args[2:])
		if err != nil {
			return err
		}
		if kind == "V" {
			c.Add(device.NewVSource(name, args[0], args[1], w))
		} else {
			c.Add(device.NewISource(name, args[0], args[1], w))
		}
	case "E", "G":
		if err := need(5); err != nil {
			return err
		}
		g, err := ParseValue(args[4])
		if err != nil {
			return err
		}
		if kind == "E" {
			c.Add(device.NewVCVS(name, args[0], args[1], args[2], args[3], g))
		} else {
			c.Add(device.NewVCCS(name, args[0], args[1], args[2], args[3], g))
		}
	case "M":
		if err := need(4); err != nil {
			return err
		}
		model, ok := p.models[strings.ToLower(args[3])]
		if !ok {
			return fmt.Errorf("MOSFET %s references unknown model %q", name, args[3])
		}
		w, l := 10e-6, 1e-6
		for _, kv := range args[4:] {
			k, v, ok := strings.Cut(strings.ToLower(kv), "=")
			if !ok {
				return fmt.Errorf("bad MOSFET parameter %q", kv)
			}
			val, err := ParseValue(v)
			if err != nil {
				return err
			}
			switch k {
			case "w":
				w = val
			case "l":
				l = val
			default:
				return fmt.Errorf("unknown MOSFET parameter %q", k)
			}
		}
		if w <= 0 || l <= 0 {
			return fmt.Errorf("MOSFET %s: w=%g and l=%g must be positive", name, w, l)
		}
		mm := *model // per-instance copy so corners stay independent
		c.Add(device.NewMOSFET(name, args[0], args[1], args[2], &mm, w, l))
	case "Q":
		if err := need(4); err != nil {
			return err
		}
		model, ok := p.bjtModels[strings.ToLower(args[3])]
		if !ok {
			return fmt.Errorf("BJT %s references unknown model %q", name, args[3])
		}
		mm := *model
		c.Add(device.NewBJT(name, args[0], args[1], args[2], &mm))
	default:
		return fmt.Errorf("unsupported element %q", name)
	}
	return nil
}

// Format renders a circuit back to netlist text (devices only; models
// are inlined as defaults). It is mainly useful for diffing faulty
// netlists in reports.
func Format(c *circuit.Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".title %s\n", c.Name())
	for _, d := range c.Devices() {
		switch dev := d.(type) {
		case *device.Resistor:
			fmt.Fprintf(&b, "%s %s %g\n", dev.Name(), joinNodes(dev), dev.R)
		case *device.Capacitor:
			fmt.Fprintf(&b, "%s %s %g\n", dev.Name(), joinNodes(dev), dev.C)
		case *device.Inductor:
			fmt.Fprintf(&b, "%s %s %g\n", dev.Name(), joinNodes(dev), dev.L)
		case *device.VSource:
			fmt.Fprintf(&b, "%s %s %s\n", dev.Name(), joinNodes(dev), dev.W)
		case *device.ISource:
			fmt.Fprintf(&b, "%s %s %s\n", dev.Name(), joinNodes(dev), dev.W)
		case *device.Diode:
			fmt.Fprintf(&b, "%s %s is=%g n=%g\n", dev.Name(), joinNodes(dev), dev.Model.IS, dev.Model.N)
		case *device.MOSFET:
			fmt.Fprintf(&b, "%s %s %s w=%g l=%g\n", dev.Name(), joinNodes(dev),
				dev.Model.Type, dev.W, dev.L)
		case *device.BJT:
			fmt.Fprintf(&b, "%s %s %s is=%g bf=%g\n", dev.Name(), joinNodes(dev),
				dev.Model.Type, dev.Model.IS, dev.Model.BF)
		default:
			fmt.Fprintf(&b, "* %s %s (unrendered)\n", dev.Name(), joinNodes(dev))
		}
	}
	b.WriteString(".end\n")
	return b.String()
}

func joinNodes(d device.Device) string {
	names := d.TerminalNames()
	out := make([]string, len(names))
	for i, n := range names {
		if circuit.IsGround(n) {
			out[i] = "0"
		} else {
			out[i] = n
		}
	}
	return strings.Join(out, " ")
}
