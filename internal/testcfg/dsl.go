package testcfg

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/netlist"
)

// Test configuration description language — the textual form of the
// paper's Fig. 1. A description names the macro type, declares the
// stimulus applied to the standardized input, the optimizable test
// parameters with their constraint values and seeds, and the return
// value with its equipment accuracy. Example:
//
//	macro IV-converter
//	config 7 custom-thd
//	stimulus sine(Iindc, 5u, freq)
//	param Iindc A 0 40u seed 20u
//	param freq Hz 1k 100k seed 10k
//	return thd(Vout) % accuracy 0.02
//
// Stimulus kinds (parameters referenced by name, literals with SPICE
// suffixes):
//
//	dc(P)                  DC current level
//	sine(P, amp, P2)       sine with DC offset P, amplitude amp, freq P2
//	step(P, P2, d, r)      step from P by P2, delay d, rise r
//
// Return kinds:
//
//	vdc(node)     DC voltage at node                (dc stimulus)
//	idd()         DC supply current                 (dc stimulus)
//	thd(node)     THD in percent                    (sine stimulus)
//	max(node)     max of 100 MHz samples over 7.5 µs (step stimulus)
//	sum(node)     ΣV·dt of the same sample comb     (step stimulus)
//
// Lines starting with '#' or '*' are comments.
//
// A description compiles onto the built-in simulate steps and measures
// (testcfg.go): vdc and idd read an operating point at the stimulus's
// DC level, thd a sine capture of its node, max and sum a step response
// of theirs. Each description gets an analysis of its own, without a
// warm recipe.

type dslStimulus struct {
	kind   string // dc, sine, step
	refs   []string
	consts []float64 // sine amplitude / step delay+rise
}

type dslReturn struct {
	kind string // vdc, idd, thd, max, sum
	node string
}

// ParseConfig reads one test configuration description.
func ParseConfig(r io.Reader) (*Config, error) {
	cfg := &Config{Macro: "IV-converter"}
	var stim *dslStimulus
	var ret *dslReturn
	var retUnit string
	var retAcc float64

	scanner := bufio.NewScanner(r)
	lineno := 0
	for scanner.Scan() {
		lineno++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "*") {
			continue
		}
		fields := strings.Fields(line)
		key := strings.ToLower(fields[0])
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("testcfg dsl line %d: %s", lineno, fmt.Sprintf(format, args...))
		}
		switch key {
		case "macro":
			if len(fields) < 2 {
				return nil, fail("macro needs a type name")
			}
			cfg.Macro = fields[1]
		case "config":
			if len(fields) < 3 {
				return nil, fail("config needs a number and a name")
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &cfg.ID); err != nil {
				return nil, fail("bad config number %q", fields[1])
			}
			cfg.Name = fields[2]
		case "stimulus":
			s, err := parseDSLStimulus(strings.Join(fields[1:], " "))
			if err != nil {
				return nil, fail("%v", err)
			}
			stim = s
			cfg.Stimulus = strings.Join(fields[1:], " ")
		case "param":
			// param NAME UNIT LO HI seed SEED
			if len(fields) != 7 || strings.ToLower(fields[5]) != "seed" {
				return nil, fail("param syntax: param NAME UNIT LO HI seed SEED")
			}
			lo, err1 := netlist.ParseValue(fields[3])
			hi, err2 := netlist.ParseValue(fields[4])
			seed, err3 := netlist.ParseValue(fields[6])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("bad param values")
			}
			if lo > hi || seed < lo || seed > hi {
				return nil, fail("param %s: need LO <= seed <= HI", fields[1])
			}
			cfg.Params = append(cfg.Params, Param{
				Name: fields[1], Unit: fields[2], Lo: lo, Hi: hi, Seed: seed,
			})
		case "return":
			// return KIND(node) UNIT accuracy VAL
			if len(fields) != 4 || strings.ToLower(fields[2]) != "accuracy" {
				return nil, fail("return syntax: return KIND(node) accuracy VAL")
			}
			rk, err := parseDSLReturn(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			acc, err := netlist.ParseValue(fields[3])
			if err != nil || acc <= 0 {
				return nil, fail("bad accuracy %q", fields[3])
			}
			ret = rk
			retUnit = dslReturns[rk.kind].unit
			retAcc = acc
			cfg.Observe = fields[1]
		default:
			return nil, fail("unknown keyword %q", key)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("testcfg dsl: missing config line")
	}
	if stim == nil || ret == nil {
		return nil, fmt.Errorf("testcfg dsl: config %s needs a stimulus and a return", cfg.Name)
	}
	if len(cfg.Params) == 0 {
		return nil, fmt.Errorf("testcfg dsl: config %s declares no parameters", cfg.Name)
	}
	// Resolve parameter references.
	pidx := make(map[string]int, len(cfg.Params))
	for i, p := range cfg.Params {
		pidx[p.Name] = i
	}
	refIdx := make([]int, len(stim.refs))
	for i, ref := range stim.refs {
		j, ok := pidx[ref]
		if !ok {
			return nil, fmt.Errorf("testcfg dsl: stimulus references unknown parameter %q", ref)
		}
		refIdx[i] = j
	}
	if cfg.an = compileDSL(stim, refIdx, ret); cfg.an == nil {
		return nil, fmt.Errorf("testcfg dsl: return %s() incompatible with stimulus %s()", ret.kind, stim.kind)
	}
	cfg.measure = dslReturns[ret.kind].measure
	if cfg.measure == nil {
		cfg.measure = vdcMeasure(ret.node)
	}
	cfg.Returns = []Return{{Name: cfg.Observe, Unit: retUnit, Accuracy: retAcc}}
	return cfg, nil
}

// compileDSL maps a stimulus/return pair onto its simulate step, or
// returns nil when the pair is incompatible. refIdx holds the parameter
// index of each stimulus reference.
func compileDSL(stim *dslStimulus, refIdx []int, ret *dslReturn) *analysis {
	switch {
	case stim.kind == "step" && (ret.kind == "max" || ret.kind == "sum"):
		return stepAnalysis(refIdx[0], refIdx[1], stim.consts[0], stim.consts[1], ret.node)
	case stim.kind == "sine" && ret.kind == "thd":
		return sineAnalysis(refIdx[0], refIdx[1], stim.consts[0], ret.node)
	case stim.kind != "step" && (ret.kind == "vdc" || ret.kind == "idd"):
		return opAnalysis(refIdx[0], ret.node, false)
	}
	return nil
}

// ParseConfigString is ParseConfig over a string.
func ParseConfigString(s string) (*Config, error) { return ParseConfig(strings.NewReader(s)) }

func parseDSLStimulus(s string) (*dslStimulus, error) {
	kind, argstr, ok := cutParen(s)
	if !ok {
		return nil, fmt.Errorf("stimulus %q is not KIND(args)", s)
	}
	args := splitArgs(argstr)
	st := &dslStimulus{kind: kind}
	switch kind {
	case "dc":
		if len(args) != 1 {
			return nil, fmt.Errorf("dc() takes one parameter name")
		}
		st.refs = args
	case "sine":
		if len(args) != 3 {
			return nil, fmt.Errorf("sine() takes offset-param, amplitude, freq-param")
		}
		amp, err := netlist.ParseValue(args[1])
		if err != nil {
			return nil, fmt.Errorf("sine amplitude %q: %v", args[1], err)
		}
		st.refs = []string{args[0], args[2]}
		st.consts = []float64{amp}
	case "step":
		if len(args) != 4 {
			return nil, fmt.Errorf("step() takes base-param, elev-param, delay, rise")
		}
		d, err1 := netlist.ParseValue(args[2])
		r, err2 := netlist.ParseValue(args[3])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad step timing")
		}
		st.refs = []string{args[0], args[1]}
		st.consts = []float64{d, r}
	default:
		return nil, fmt.Errorf("unknown stimulus kind %q", kind)
	}
	return st, nil
}

func parseDSLReturn(s string) (*dslReturn, error) {
	kind, arg, ok := cutParen(s)
	if !ok {
		return nil, fmt.Errorf("return %q is not KIND(node)", s)
	}
	r := &dslReturn{kind: kind, node: strings.TrimSpace(arg)}
	if _, ok := dslReturns[kind]; !ok {
		return nil, fmt.Errorf("unknown return kind %q", kind)
	}
	if r.node == "" && kind != "idd" {
		return nil, fmt.Errorf("%s() needs a node", kind)
	}
	return r, nil
}

// dslReturns holds each return kind's unit and measure; vdc's (nil
// here) reads the node its return names.
var dslReturns = map[string]struct {
	unit    string
	measure measure
}{
	"vdc": {"V", nil},
	"idd": {"A", iddMeasure},
	"thd": {"%", thdMeasure},
	"max": {"V", maxMeasure},
	"sum": {"V·s", sumMeasure},
}

// cutParen splits "kind(args)" into its pieces.
func cutParen(s string) (kind, args string, ok bool) {
	open := strings.Index(s, "(")
	closeIdx := strings.LastIndex(s, ")")
	if open <= 0 || closeIdx < open {
		return "", "", false
	}
	return strings.ToLower(strings.TrimSpace(s[:open])), s[open+1 : closeIdx], true
}

func splitArgs(s string) []string {
	raw := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
	out := raw[:0]
	for _, a := range raw {
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}
