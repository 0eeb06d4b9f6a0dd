package netlist

import "testing"

// FuzzNetlistParse feeds arbitrary text to the netlist parser: atpgd
// parses inline netlists straight from job requests, so no input may
// panic it. The checked-in corpus (testdata/fuzz/FuzzNetlistParse)
// holds every input that once did.
func FuzzNetlistParse(f *testing.F) {
	f.Add(dividerNetlist)
	f.Add(".model nm nmos vt0=0.7 kp=50u\n.model qn npn bf=100\nV1 vdd 0 5\nI1 0 in sin(1u 1u 1k)\nR1 vdd out 10k\nM1 out in 0 nm w=10u l=1u\nQ1 out in 0 qn\nC1 out 0 1p\nL1 out x 1u\nD1 x 0\nE1 y 0 out 0 2\nG1 y 0 out 0 1m\n.end\n")
	f.Add(".subckt buf a b\nR1 a n 1k\nR2 n b 1k\n.ends\nX1 in out buf\nX2 out 0 buf\nV1 in 0 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src, "fuzz")
		if err == nil && c == nil {
			t.Fatal("nil circuit without an error")
		}
	})
}
