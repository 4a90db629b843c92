package dpe

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestMeasureTextRoundTrip checks the wire spelling of every measure
// survives MarshalText → UnmarshalText, including through encoding/json.
func TestMeasureTextRoundTrip(t *testing.T) {
	for _, m := range []Measure{MeasureToken, MeasureStructure, MeasureResult, MeasureAccessArea} {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if string(text) != m.String() {
			t.Errorf("%v marshals to %q, want %q", m, text, m.String())
		}
		var back Measure
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if back != m {
			t.Errorf("%v round-trips to %v", m, back)
		}

		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + m.String() + `"`; string(b) != want {
			t.Errorf("json.Marshal(%v) = %s, want %s", m, b, want)
		}
		var fromJSON Measure
		if err := json.Unmarshal(b, &fromJSON); err != nil {
			t.Fatal(err)
		}
		if fromJSON != m {
			t.Errorf("%v JSON round-trips to %v", m, fromJSON)
		}
	}
	if _, err := Measure(42).MarshalText(); err == nil {
		t.Error("marshalling an invalid measure should fail")
	}
	var m Measure
	if err := m.UnmarshalText([]byte("no-such-measure")); err == nil {
		t.Error("unmarshalling an unknown measure should fail")
	}
}

// TestMiningAlgorithmTextRoundTrip is the same for the five algorithms.
func TestMiningAlgorithmTextRoundTrip(t *testing.T) {
	for _, a := range []MiningAlgorithm{MineKMedoids, MineDBSCAN, MineCompleteLink, MineOutliers, MineKNN} {
		text, err := a.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		parsed, err := ParseMiningAlgorithm(string(text))
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if parsed != a {
			t.Errorf("%v round-trips to %v", a, parsed)
		}
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var fromJSON MiningAlgorithm
		if err := json.Unmarshal(b, &fromJSON); err != nil {
			t.Fatal(err)
		}
		if fromJSON != a {
			t.Errorf("%v JSON round-trips to %v", a, fromJSON)
		}
	}
	if _, err := ParseMiningAlgorithm("quantum"); err == nil {
		t.Error("parsing an unknown algorithm should fail")
	}
	if got, err := ParseMiningAlgorithm(" KMedoids "); err != nil || got != MineKMedoids {
		t.Errorf("ParseMiningAlgorithm tolerant spelling = %v, %v", got, err)
	}
	if _, err := MiningAlgorithm(42).MarshalText(); err == nil {
		t.Error("marshalling an invalid algorithm should fail")
	}
}

// TestMineSpecValidate checks the fail-fast parameter validation.
func TestMineSpecValidate(t *testing.T) {
	const n = 10
	valid := []MineSpec{
		{Algorithm: MineKMedoids, K: 3},
		{Algorithm: MineCompleteLink, K: n},
		{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 2},
		{Algorithm: MineOutliers, P: 0.9, D: 0.5},
		{Algorithm: MineKNN, K: n - 1, Query: n - 1},
	}
	for _, spec := range valid {
		if err := spec.Validate(n); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", spec, err)
		}
	}
	invalid := []struct {
		spec MineSpec
		want string
	}{
		{MineSpec{Algorithm: MineKMedoids}, "K > 0"},
		{MineSpec{Algorithm: MineKMedoids, K: n + 1}, "K <="},
		{MineSpec{Algorithm: MineCompleteLink, K: -1}, "K > 0"},
		{MineSpec{Algorithm: MineDBSCAN, MinPts: 2}, "Eps > 0"},
		{MineSpec{Algorithm: MineDBSCAN, Eps: 0.4}, "MinPts > 0"},
		{MineSpec{Algorithm: MineOutliers, P: 0, D: 1}, "P in (0,1)"},
		{MineSpec{Algorithm: MineOutliers, P: 1, D: 1}, "P in (0,1)"},
		{MineSpec{Algorithm: MineOutliers, P: 0.5}, "D > 0"},
		{MineSpec{Algorithm: MineDBSCAN, Eps: math.NaN(), MinPts: 2}, "Eps > 0"},
		{MineSpec{Algorithm: MineOutliers, P: math.NaN(), D: 1}, "P in (0,1)"},
		{MineSpec{Algorithm: MineOutliers, P: 0.5, D: math.NaN()}, "D > 0"},
		// A NaN in a float the algorithm ignores is still rejected.
		{MineSpec{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 2, P: math.NaN()}, "NaN"},
		{MineSpec{Algorithm: MineOutliers, P: 0.5, D: 1, Eps: math.NaN()}, "NaN"},
		{MineSpec{Algorithm: MineKMedoids, K: 3, D: math.NaN()}, "NaN"},
		{MineSpec{Algorithm: MineKNN, Query: 0}, "K > 0"},
		{MineSpec{Algorithm: MineKNN, K: n, Query: 0}, "K <="},
		{MineSpec{Algorithm: MineKNN, K: 2, Query: n}, "outside log"},
		{MineSpec{Algorithm: MineKNN, K: 2, Query: -1}, "outside log"},
		{MineSpec{Algorithm: MiningAlgorithm(9)}, "unknown mining algorithm"},
	}
	for _, tc := range invalid {
		err := tc.spec.Validate(n)
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error matching %q", tc.spec, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %q, want substring %q", tc.spec, err, tc.want)
		}
	}
}

// TestMineFailsFast checks a bad spec is rejected before the matrix
// build: the error must come back even though the log itself would not
// survive preparation (unparsable), proving validation runs first.
func TestMineFailsFast(t *testing.T) {
	p, err := NewProvider(MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	badLog := []string{"SELECT 1 FROM t", "not really sql ((("}
	_, err = p.Mine(t.Context(), badLog, MineSpec{Algorithm: MineDBSCAN, Eps: -1, MinPts: 0})
	if err == nil || !strings.Contains(err.Error(), "Eps > 0") {
		t.Errorf("Mine with bad spec = %v, want Eps validation error before preparation", err)
	}
}
