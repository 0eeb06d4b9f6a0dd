package testcfg

import "testing"

// FuzzConfigDSL feeds arbitrary text to the configuration-description
// parser: atpgd parses config_dsl entries straight from job requests,
// so no input may panic it. It only parses — a fuzzed configuration
// must not simulate. The checked-in corpus
// (testdata/fuzz/FuzzConfigDSL) includes the descriptions whose runs
// once panicked on an unknown return node.
func FuzzConfigDSL(f *testing.F) {
	f.Add(dslDCConfig)
	f.Add("macro IV-converter\nconfig 8 custom-thd\nstimulus sine(Iindc, 5u, freq)\nparam Iindc A 0 40u seed 20u\nparam freq Hz 1k 100k seed 10k\nreturn thd(Vout) accuracy 0.02\n")
	f.Add("config 9 s\nstimulus step(base, elev, 10n, 10n)\nparam base A 0 40u seed 5u\nparam elev A 0 40u seed 20u\nreturn sum(Vout) accuracy 7.5n\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseConfigString(src)
		if err != nil {
			return
		}
		if len(c.Params) == 0 || len(c.Returns) != 1 || c.an == nil || c.measure == nil {
			t.Fatalf("accepted configuration is incomplete: %+v", c)
		}
		if !c.Bounds().Contains(c.Seeds()) {
			t.Fatalf("accepted seeds %v outside the bounds", c.Seeds())
		}
	})
}
