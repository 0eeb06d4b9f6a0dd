package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Fault diagnosis: the natural follow-up to structural test generation
// (and listed as the motivation for fault dictionaries in the IFA
// literature the paper builds on). Each dictionary fault's predicted
// responses under a test set form its signature; a failing device's
// measured responses are matched against the signature database to rank
// candidate defects.

// Signature is the predicted response of one fault under a test set.
type Signature struct {
	FaultID string
	// Responses[t] holds the return values of test t; nil marks a test
	// the faulty circuit could not complete (catastrophic — itself a
	// strong signature).
	Responses [][]float64
}

// Signatures simulates every fault (at dictionary impact) under every
// test and returns the signature database, plus the fault-free baseline
// in the first return value.
func (s *Session) Signatures(tests []Test, faults []fault.Fault) (baseline [][]float64, sigs []Signature, err error) {
	_, sp := s.tr.Start(context.Background(), "signatures",
		obs.Int("tests", len(tests)), obs.Int("faults", len(faults)))
	defer sp.End()
	baseline = make([][]float64, len(tests))
	for ti, t := range tests {
		r, err := s.Nominal(t.ConfigIdx, t.Params)
		if err != nil {
			return nil, nil, fmt.Errorf("core: baseline for test %d: %w", ti, err)
		}
		baseline[ti] = r
	}
	for _, f := range faults {
		fd := f.WithImpact(f.InitialImpact())
		sig := Signature{FaultID: f.ID(), Responses: make([][]float64, len(tests))}
		faulty, err := fd.Insert(s.golden)
		if err != nil {
			return nil, nil, err
		}
		for ti, t := range tests {
			r, err := s.run(s.configs[t.ConfigIdx], faulty, t.Params)
			if err != nil {
				sig.Responses[ti] = nil // catastrophic marker
				continue
			}
			sig.Responses[ti] = r
		}
		sigs = append(sigs, sig)
	}
	return baseline, sigs, nil
}

// Diagnosis is one ranked candidate fault.
type Diagnosis struct {
	FaultID string
	// Distance is the box-normalized RMS distance between the candidate
	// signature and the observation; smaller is a better match.
	Distance float64
}

// Diagnose ranks the signature database against observed responses.
// observed[t] holds the measured return values of test t; a nil entry
// means the test could not be completed on the device under test and
// matches catastrophic signatures. Distances are normalized per return
// value by the tolerance-box halfwidth, so heterogeneous units compose.
func (s *Session) Diagnose(tests []Test, sigs []Signature, observed [][]float64) ([]Diagnosis, error) {
	_, sp := s.tr.Start(context.Background(), "diagnose",
		obs.Int("tests", len(tests)), obs.Int("signatures", len(sigs)))
	defer sp.End()
	if len(observed) != len(tests) {
		return nil, fmt.Errorf("core: %d observations for %d tests", len(observed), len(tests))
	}
	// The distance for a (nil, non-nil) pair must exceed any plausible
	// numeric distance without destroying the ordering among other
	// candidates.
	const catastrophicMismatch = 1e6
	out := make([]Diagnosis, 0, len(sigs))
	for _, sig := range sigs {
		if len(sig.Responses) != len(tests) {
			return nil, fmt.Errorf("core: signature %s covers %d tests, want %d",
				sig.FaultID, len(sig.Responses), len(tests))
		}
		sum, n := 0.0, 0
		for ti, t := range tests {
			pred := sig.Responses[ti]
			obs := observed[ti]
			switch {
			case pred == nil && obs == nil:
				// Both catastrophic: perfect agreement on this test.
				n++
			case pred == nil || obs == nil:
				sum += catastrophicMismatch * catastrophicMismatch
				n++
			default:
				box := s.boxes[t.ConfigIdx].Halfwidths(t.Params)
				for i := range pred {
					hw := 1e-12
					if i < len(box) && box[i] > hw {
						hw = box[i]
					}
					d := (pred[i] - obs[i]) / hw
					sum += d * d
					n++
				}
			}
		}
		if n == 0 {
			continue
		}
		out = append(out, Diagnosis{FaultID: sig.FaultID, Distance: math.Sqrt(sum / float64(n))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].FaultID < out[j].FaultID
	})
	return out, nil
}

// ObserveFault simulates the responses a tester would record on a device
// carrying the given fault (at its current impact), in the shape
// Diagnose expects — the test-bench side of a diagnosis experiment.
func (s *Session) ObserveFault(tests []Test, f fault.Fault) ([][]float64, error) {
	faulty, err := f.Insert(s.golden)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(tests))
	for ti, t := range tests {
		r, err := s.run(s.configs[t.ConfigIdx], faulty, t.Params)
		if err != nil {
			out[ti] = nil
			continue
		}
		out[ti] = r
	}
	return out, nil
}
