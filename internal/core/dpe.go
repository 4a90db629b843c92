package core

import (
	"fmt"
	"math"
)

// PairwiseDistance computes the distance between log items i and j;
// implementations exist for plaintext and for encrypted logs.
type PairwiseDistance func(i, j int) (float64, error)

// CounterExample records one pair whose distance changed under
// encryption.
type CounterExample struct {
	I     int     `json:"i"`
	J     int     `json:"j"`
	Plain float64 `json:"plain"`
	Enc   float64 `json:"enc"`
}

// PreservationReport is the outcome of an empirical Definition 1 check.
type PreservationReport struct {
	Pairs           int              `json:"pairs"`
	MaxAbsError     float64          `json:"max_abs_error"`
	Preserved       bool             `json:"preserved"`
	CounterExamples []CounterExample `json:"counter_examples,omitempty"`
	// Error records a scheme-construction or execution failure that made
	// the candidate unusable — itself a form of non-preservation.
	Error string `json:"error,omitempty"`
}

// maxCounterExamples bounds the report size.
const maxCounterExamples = 5

// VerifyDPE empirically checks Definition 1 over all pairs of an n-item
// log: d(Enc(x), Enc(y)) must equal d(x, y) within tol (floating-point
// slack; 0 means 1e-12).
func VerifyDPE(n int, plain, enc PairwiseDistance, tol float64) (*PreservationReport, error) {
	if tol == 0 {
		tol = 1e-12
	}
	rep := &PreservationReport{Preserved: true}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dp, err := plain(i, j)
			if err != nil {
				return nil, fmt.Errorf("core: plain distance (%d,%d): %w", i, j, err)
			}
			de, err := enc(i, j)
			if err != nil {
				return nil, fmt.Errorf("core: encrypted distance (%d,%d): %w", i, j, err)
			}
			rep.Pairs++
			diff := math.Abs(dp - de)
			if diff > rep.MaxAbsError {
				rep.MaxAbsError = diff
			}
			if diff > tol {
				rep.Preserved = false
				if len(rep.CounterExamples) < maxCounterExamples {
					rep.CounterExamples = append(rep.CounterExamples, CounterExample{I: i, J: j, Plain: dp, Enc: de})
				}
			}
		}
	}
	return rep, nil
}

// Characteristic is the function c of Definition 2, rendered as a
// comparable set (e.g. token sets, feature sets, result tuple sets).
type Characteristic func(i int) (map[string]bool, error)

// EquivalenceReport is the outcome of a c-equivalence check.
type EquivalenceReport struct {
	Items     int
	Holds     bool
	FirstFail int // index of the first failing item, -1 if none
}

// VerifyEquivalence checks the observable consequence of Definition 2
// for a set-valued characteristic: the characteristic commutes with
// encryption, i.e. applying the item-wise encryption to c(x) yields
// c(Enc(x)). encOfPlain must map the plain characteristic of item i into
// ciphertext space (the "Enc(c(x))" side); encSide extracts the
// characteristic from the encrypted item ("c(Enc(x))").
func VerifyEquivalence(n int, encOfPlain, encSide Characteristic) (*EquivalenceReport, error) {
	rep := &EquivalenceReport{Items: n, Holds: true, FirstFail: -1}
	for i := 0; i < n; i++ {
		want, err := encOfPlain(i)
		if err != nil {
			return nil, fmt.Errorf("core: Enc(c(x)) for item %d: %w", i, err)
		}
		got, err := encSide(i)
		if err != nil {
			return nil, fmt.Errorf("core: c(Enc(x)) for item %d: %w", i, err)
		}
		if !setsEqual(want, got) {
			rep.Holds = false
			if rep.FirstFail == -1 {
				rep.FirstFail = i
			}
		}
	}
	return rep, nil
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Candidate is one encryption-class choice to be tested for an
// equivalence notion: a label (how constants are encrypted), the class
// whose security it provides, and a verifier that runs the empirical
// Definition 1 check for a workload.
type Candidate struct {
	Label  string
	Class  Class
	Verify func() (*PreservationReport, error)
}

// Selection is the outcome of appropriate-class selection.
type Selection struct {
	// Chosen is the appropriate candidate per Definition 6, nil if no
	// candidate preserves the notion.
	Chosen *Candidate
	// Reports maps candidate labels to their verification outcomes, for
	// the full Table I-style evidence.
	Reports map[string]*PreservationReport
}

// SelectAppropriate implements Definition 6 empirically: among the
// candidates, pick the most secure one whose verifier reports
// preservation. Candidates tie-break by input order within a security
// level.
func SelectAppropriate(candidates []Candidate) (*Selection, error) {
	sel := &Selection{Reports: make(map[string]*PreservationReport)}
	bestLevel := -1
	for i := range candidates {
		c := &candidates[i]
		rep, err := c.Verify()
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", c.Label, err)
		}
		sel.Reports[c.Label] = rep
		if rep.Preserved && SecurityLevel(c.Class) > bestLevel {
			bestLevel = SecurityLevel(c.Class)
			sel.Chosen = c
		}
	}
	return sel, nil
}
