package testcfg

import (
	"math"
	"testing"

	"repro/internal/macros"
)

const dslDCConfig = `
# a user-authored configuration description (paper Fig. 1 as text)
macro IV-converter
config 7 custom-dc
stimulus dc(Iindc)
param Iindc A 0 100u seed 20u
return vdc(Vout) accuracy 1m
`

func TestDSLParseDC(t *testing.T) {
	c, err := ParseConfigString(dslDCConfig)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != 7 || c.Name != "custom-dc" || c.Macro != "IV-converter" {
		t.Errorf("header parsed wrong: %+v", c)
	}
	if len(c.Params) != 1 || math.Abs(c.Params[0].Hi-100e-6) > 1e-12 {
		t.Errorf("params = %+v", c.Params)
	}
	if len(c.Returns) != 1 || c.Returns[0].Accuracy != 1e-3 || c.Returns[0].Unit != "V" {
		t.Errorf("returns = %+v", c.Returns)
	}
}

func TestDSLConfigRunsLikeBuiltin(t *testing.T) {
	c, err := ParseConfigString(dslDCConfig)
	if err != nil {
		t.Fatal(err)
	}
	builtin := ByID(IVConfigs(), 1)
	ckt := macros.IVConverter()
	got, err := c.Run(ckt, []float64{20e-6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := builtin.Run(ckt, []float64{20e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-want[0]) > 1e-9 {
		t.Errorf("DSL dc config %g != builtin %g", got[0], want[0])
	}
}

func TestDSLTHDConfig(t *testing.T) {
	src := `
macro IV-converter
config 8 custom-thd
stimulus sine(Iindc, 5u, freq)
param Iindc A 0 40u seed 20u
param freq Hz 1k 100k seed 10k
return thd(Vout) accuracy 0.02
`
	c, err := ParseConfigString(src)
	if err != nil {
		t.Fatal(err)
	}
	builtin := ByID(IVConfigs(), 3)
	ckt := macros.IVConverter()
	got, err := c.Run(ckt, []float64{20e-6, 10e3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := builtin.Run(ckt, []float64{20e-6, 10e3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-want[0]) > 1e-9 {
		t.Errorf("DSL thd %g != builtin %g", got[0], want[0])
	}
}

func TestDSLStepConfigs(t *testing.T) {
	src := `
config 9 custom-step
stimulus step(base, elev, 10n, 10n)
param base A 0 40u seed 5u
param elev A 0 40u seed 20u
return max(Vout) accuracy 5m
`
	c, err := ParseConfigString(src)
	if err != nil {
		t.Fatal(err)
	}
	builtin := ByID(IVConfigs(), 5)
	ckt := macros.IVConverter()
	got, err := c.Run(ckt, []float64{5e-6, 20e-6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := builtin.Run(ckt, []float64{5e-6, 20e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-want[0]) > 1e-9 {
		t.Errorf("DSL max %g != builtin %g", got[0], want[0])
	}
}

func TestDSLIddAndSum(t *testing.T) {
	idd := `
config 10 custom-idd
stimulus dc(Iindc)
param Iindc A 0 100u seed 20u
return idd() accuracy 200n
`
	c, err := ParseConfigString(idd)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(macros.IVConverter(), []float64{20e-6})
	if err != nil {
		t.Fatal(err)
	}
	if r[0] < 50e-6 || r[0] > 500e-6 {
		t.Errorf("idd = %g, implausible", r[0])
	}

	sum := `
config 11 custom-sum
stimulus step(base, elev, 10n, 10n)
param base A 0 40u seed 5u
param elev A 0 40u seed 20u
return sum(Vout) accuracy 7.5n
`
	cs, err := ParseConfigString(sum)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cs.Run(macros.IVConverter(), []float64{5e-6, 20e-6})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] <= 0 {
		t.Errorf("sum = %g, want positive", rs[0])
	}
}

func TestDSLErrors(t *testing.T) {
	bad := map[string]string{
		"no-config":     "stimulus dc(x)\nparam x A 0 1 seed 0.5\nreturn vdc(Vout) accuracy 1m\n",
		"no-stim":       "config 1 a\nparam x A 0 1 seed 0.5\nreturn vdc(Vout) accuracy 1m\n",
		"no-params":     "config 1 a\nstimulus dc(x)\nreturn vdc(Vout) accuracy 1m\n",
		"unknown-param": "config 1 a\nstimulus dc(y)\nparam x A 0 1 seed 0.5\nreturn vdc(Vout) accuracy 1m\n",
		"bad-seed":      "config 1 a\nstimulus dc(x)\nparam x A 0 1 seed 5\nreturn vdc(Vout) accuracy 1m\n",
		"incompat":      "config 1 a\nstimulus dc(x)\nparam x A 0 1 seed 0.5\nreturn max(Vout) accuracy 1m\n",
		"bad-return":    "config 1 a\nstimulus dc(x)\nparam x A 0 1 seed 0.5\nreturn blorp(Vout) accuracy 1m\n",
		"bad-stim":      "config 1 a\nstimulus wave(x)\nparam x A 0 1 seed 0.5\nreturn vdc(Vout) accuracy 1m\n",
		"bad-keyword":   "config 1 a\nfrobnicate yes\n",
		"bad-accuracy":  "config 1 a\nstimulus dc(x)\nparam x A 0 1 seed 0.5\nreturn vdc(Vout) accuracy -1\n",
		"short-sine":    "config 1 a\nstimulus sine(x)\nparam x A 0 1 seed 0.5\nreturn thd(Vout) accuracy 1m\n",
	}
	for name, src := range bad {
		if _, err := ParseConfigString(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDSLConfigWorksInSessionContext(t *testing.T) {
	// A DSL-defined configuration must expose valid bounds and seeds so
	// the generator can optimize over it.
	c, err := ParseConfigString(dslDCConfig)
	if err != nil {
		t.Fatal(err)
	}
	b := c.Bounds()
	if !b.Contains(c.Seeds()) {
		t.Error("seed outside bounds")
	}
	if len(c.Accuracies()) != 1 {
		t.Error("accuracies malformed")
	}
	if c.Describe() == "" {
		t.Error("empty description")
	}
}

// TestDSLUnknownReturnNode: a return on a node the macro lacks is an
// error for every return kind, transient ones included, with the same
// message; it used to panic inside the transient's probe.
func TestDSLUnknownReturnNode(t *testing.T) {
	for _, tc := range []struct {
		stim, ret string
		T         []float64
	}{
		{"dc(a)", "vdc(Nope)", []float64{20e-6}},
		{"sine(a, 5u, b)", "thd(Nope)", []float64{20e-6, 10e3}},
		{"step(a, b, 10n, 10n)", "max(Nope)", []float64{5e-6, 20e-6}},
		{"step(a, b, 10n, 10n)", "sum(Nope)", []float64{5e-6, 20e-6}},
	} {
		params := "param a A 0 40u seed 20u\n"
		if len(tc.T) == 2 {
			params += "param b X 0 100k seed 10k\n"
		}
		c, err := ParseConfigString("config 9 x\nstimulus " + tc.stim + "\n" + params + "return " + tc.ret + " accuracy 1m\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.ret, err)
		}
		_, err = c.Run(macros.IVConverter(), tc.T)
		if want := `testcfg dsl: node "Nope" missing`; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", tc.ret, err, want)
		}
	}
}
