package repro_test

import (
	"fmt"
	"log"

	"repro"
)

// ExampleNewIVConverterSystem shows the minimal generate-and-detect flow
// on one fault.
func ExampleNewIVConverterSystem() {
	sys, err := repro.NewIVConverterSystem(repro.WithFastBoxes())
	if err != nil {
		log.Fatal(err)
	}
	// The dictionary reproduces the paper's 45 bridges + 10 pinholes.
	fmt.Println("faults:", len(sys.Faults()))
	fmt.Println("configs:", len(sys.Configs()))
	// Output:
	// faults: 55
	// configs: 5
}

// ExampleSystem_Sensitivity evaluates the paper's cost function for one
// fault at chosen test parameters.
func ExampleSystem_Sensitivity() {
	sys, err := repro.NewIVConverterSystem(repro.WithFastBoxes())
	if err != nil {
		log.Fatal(err)
	}
	// The 10 kΩ feedback bridge under the DC-output configuration.
	var f repro.Fault
	for _, ff := range sys.Faults() {
		if ff.ID() == "bridge:Iin-Vout" {
			f = ff
		}
	}
	sf, err := sys.Sensitivity(0, f, []float64{20e-6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("detected:", sf < 0)
	// Output:
	// detected: true
}

// ExampleNewIVConverterSystem_options shows the functional-options
// constructor: options compose left to right over the experiment-grade
// defaults, so a later option overrides an earlier one.
func ExampleNewIVConverterSystem_options() {
	sys, err := repro.NewIVConverterSystem(
		repro.WithFastBoxes(), // seed-calibrated boxes (fast; grid is the default)
		repro.WithWorkers(2),  // bound evaluation parallelism
		repro.WithWorkers(4),  // a later option overrides an earlier one
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("faults:", len(sys.Faults()))
	fmt.Println("configs:", len(sys.Configs()))
	fmt.Println("workers:", sys.Session().Config().Workers)
	// Output:
	// faults: 55
	// configs: 5
	// workers: 4
}

// ExampleParseTestConfigString builds a runnable test configuration from
// the paper's Fig. 1 style textual description.
func ExampleParseTestConfigString() {
	cfg, err := repro.ParseTestConfigString(`
config 7 custom-dc
stimulus dc(Iindc)
param Iindc A 0 100u seed 20u
return vdc(Vout) accuracy 1m
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cfg.Name, "params:", len(cfg.Params))
	// Output:
	// custom-dc params: 1
}
