package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/distance"
	"repro/internal/encdb"
	"repro/internal/mining"
	"repro/internal/workload"
)

// buildMatrix runs the parallel distance engine with all cores; the
// result is entry-wise identical to a sequential build.
func buildMatrix(n int, f distance.PairFunc) (distance.Matrix, error) {
	return distance.BuildMatrix(context.Background(), n, runtime.NumCPU(), f)
}

// MiningParams are the E3 algorithm parameters.
type MiningParams struct {
	K        int     // clusters for k-medoids / complete-link
	Eps      float64 // DBSCAN radius
	MinPts   int     // DBSCAN density
	OutlierP float64 // Knorr–Ng fraction
	OutlierD float64 // Knorr–Ng distance threshold
	KNNQuery int     // query item for kNN
	KNNK     int     // neighbors
}

// DefaultMiningParams are E3's defaults, recorded in
// docs/ARCHITECTURE.md, "Paper experiments".
func DefaultMiningParams() MiningParams {
	return MiningParams{K: 4, Eps: 0.4, MinPts: 3, OutlierP: 0.95, OutlierD: 0.7, KNNQuery: 0, KNNK: 5}
}

// MiningRow reports one (measure, algorithm) equality outcome.
type MiningRow struct {
	Measure   string
	Algorithm string
	// Equal is true when plaintext-side and ciphertext-side mining
	// produced identical output.
	Equal bool
	// MatrixMaxErr is the matrix-level preservation error.
	MatrixMaxErr float64
}

// NegativeControl reports the E3 control: an *inappropriate* scheme
// (PROB constants under token distance) must break the matrix.
type NegativeControl struct {
	MatrixMaxErr   float64
	MatrixDiffers  bool
	MiningDiffered bool
}

// MiningEquality runs experiment E3: for each measure with its
// appropriate scheme, mine the plaintext log and the encrypted log with
// all five algorithms and compare outputs bit-for-bit; then run the
// negative control.
func MiningEquality(p Params, mp MiningParams) ([]MiningRow, *NegativeControl, error) {
	p = p.withDefaults()
	if mp == (MiningParams{}) {
		mp = DefaultMiningParams()
	}
	logEnv, err := newEnv(p, workload.Config{IncludeAggregates: true, IncludeJoins: true, IncludeLike: true})
	if err != nil {
		return nil, nil, err
	}
	execP := p
	execP.Queries = p.Queries / 2
	execEnv, err := newEnv(execP, workload.Config{IncludeAggregates: true, IncludeJoins: true})
	if err != nil {
		return nil, nil, err
	}

	var rows []MiningRow
	addMeasure := func(name string, plain, enc distance.Matrix) error {
		maxErr, err := distance.MaxAbsDiff(plain, enc)
		if err != nil {
			return err
		}
		algos, err := runAll(plain, mp)
		if err != nil {
			return err
		}
		encAlgos, err := runAll(enc, mp)
		if err != nil {
			return err
		}
		for _, a := range []string{"k-medoids", "dbscan", "complete-link", "outliers", "knn"} {
			rows = append(rows, MiningRow{
				Measure: name, Algorithm: a,
				Equal:        algos[a] == encAlgos[a],
				MatrixMaxErr: maxErr,
			})
		}
		return nil
	}

	// Each measure under its appropriate scheme (Table I).
	for _, m := range []struct {
		e       *env
		measure string
		mode    encdb.Mode
	}{
		{logEnv, "token", encdb.ModeToken},
		{logEnv, "structure", encdb.ModeStructure},
		{logEnv, "access-area", encdb.ModeAccessArea},
		{execEnv, "result", encdb.ModeResult},
	} {
		plain, enc, err := m.e.matrices(m.measure, m.mode)
		if err != nil {
			return nil, nil, err
		}
		if err := addMeasure(m.measure, plain, enc); err != nil {
			return nil, nil, err
		}
	}

	// Negative control: token distance under PROB constants.
	plainTok2, encTokBad, err := logEnv.matrices("token", encdb.ModeStructure)
	if err != nil {
		return nil, nil, err
	}
	badErr, err := distance.MaxAbsDiff(plainTok2, encTokBad)
	if err != nil {
		return nil, nil, err
	}
	plainAlgos, err := runAll(plainTok2, mp)
	if err != nil {
		return nil, nil, err
	}
	badAlgos, err := runAll(encTokBad, mp)
	if err != nil {
		return nil, nil, err
	}
	ctrl := &NegativeControl{
		MatrixMaxErr:  badErr,
		MatrixDiffers: badErr > 1e-9,
	}
	for a, v := range plainAlgos {
		if badAlgos[a] != v {
			ctrl.MiningDiffered = true
		}
	}
	return rows, ctrl, nil
}

// matrices builds one measure's plaintext and encrypted distance
// matrices under mode, each from the served metric's prepared state.
func (e *env) matrices(measure string, mode encdb.Mode) (plain, enc distance.Matrix, err error) {
	plainArts, encArts, err := e.artifacts(measure)
	if err != nil {
		return nil, nil, err
	}
	p, q, err := e.prepareBoth(measure, mode, plainArts, encArts)
	if err != nil {
		return nil, nil, err
	}
	if plain, err = buildMatrix(p.Len(), p.Distance); err != nil {
		return nil, nil, err
	}
	if enc, err = buildMatrix(q.Len(), q.Distance); err != nil {
		return nil, nil, err
	}
	return plain, enc, nil
}

// runAll executes the five algorithms and renders each output to a
// canonical string for equality comparison.
func runAll(m distance.Matrix, mp MiningParams) (map[string]string, error) {
	out := make(map[string]string)
	km, err := mining.KMedoids(m, mp.K)
	if err != nil {
		return nil, err
	}
	out["k-medoids"] = fmt.Sprint(km.Medoids, km.Assign)
	dl, err := mining.DBSCAN(m, mp.Eps, mp.MinPts)
	if err != nil {
		return nil, err
	}
	out["dbscan"] = fmt.Sprint(dl)
	cl, err := mining.CompleteLink(m, mp.K)
	if err != nil {
		return nil, err
	}
	out["complete-link"] = fmt.Sprint(cl)
	ol, err := mining.Outliers(m, mp.OutlierP, mp.OutlierD)
	if err != nil {
		return nil, err
	}
	out["outliers"] = fmt.Sprint(ol)
	nn, err := mining.KNN(m, mp.KNNQuery, mp.KNNK)
	if err != nil {
		return nil, err
	}
	out["knn"] = fmt.Sprint(nn)
	return out, nil
}

// RenderMining prints the E3 outcome.
func RenderMining(rows []MiningRow, ctrl *NegativeControl) string {
	var sb strings.Builder
	sb.WriteString("E3 — MINING-RESULT EQUALITY (Definition 1's consequence)\n\n")
	fmt.Fprintf(&sb, "%-12s | %-14s | %-9s | %s\n", "Measure", "Algorithm", "Equal?", "matrix max |Δd|")
	sb.WriteString(strings.Repeat("-", 60) + "\n")
	for _, r := range rows {
		eq := "YES"
		if !r.Equal {
			eq = "NO"
		}
		fmt.Fprintf(&sb, "%-12s | %-14s | %-9s | %.2e\n", r.Measure, r.Algorithm, eq, r.MatrixMaxErr)
	}
	fmt.Fprintf(&sb, "\nNegative control (PROB constants under token distance):\n")
	fmt.Fprintf(&sb, "  matrix max |Δd| = %.3f; matrix differs: %v; mining output differs: %v\n",
		ctrl.MatrixMaxErr, ctrl.MatrixDiffers, ctrl.MiningDiffered)
	sb.WriteString("  (an inappropriate class breaks distances, and with them the mining results)\n")
	return sb.String()
}
