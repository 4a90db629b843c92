package mining

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// clusteredMatrix places points on a line in g well-separated groups
// (intra-group distances ≤ 0.2, inter-group ≥ 2.0) and returns the
// absolute-difference matrix. Appends drawn the same way land inside
// existing groups, so warm and cold k-medoids agree on the optimum.
func clusteredMatrix(rng *rand.Rand, n, g int) Matrix {
	xs := make([]float64, n)
	for i := range xs {
		group := i % g
		xs[i] = float64(group)*3.0 + 0.2*rng.Float64()
	}
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			d := xs[i] - xs[j]
			if d < 0 {
				d = -d
			}
			m[i][j] = d
		}
	}
	return m
}

// subMatrix returns the top-left oldN×oldN block.
func subMatrix(m Matrix, oldN int) Matrix {
	out := make(Matrix, oldN)
	for i := 0; i < oldN; i++ {
		out[i] = m[i][:oldN]
	}
	return out
}

func TestKMedoidsCountedMatchesKMedoids(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(24)
		k := 1 + rng.Intn(4)
		m := randMatrix(rng, n)
		want, err := KMedoids(m, k)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		got, reads, err := KMedoidsCounted(m, k)
		if err != nil {
			t.Fatalf("trial %d: counted: %v", trial, err)
		}
		if !slices.Equal(got.Medoids, want.Medoids) || !slices.Equal(got.Assign, want.Assign) || got.Cost != want.Cost {
			t.Fatalf("trial %d: counted result diverged from KMedoids", trial)
		}
		if reads < int64(2*n*n) {
			t.Fatalf("trial %d: counted only %d reads, init alone is %d", trial, reads, 2*n*n)
		}
	}
}

func TestKMedoidsWarmMatchesColdOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := 2 + rng.Intn(3)
		oldN := 3*g + rng.Intn(12)
		appendK := 1 + rng.Intn(6)
		n := oldN + appendK
		m := clusteredMatrix(rng, n, g)

		prev, _, err := KMedoidsCounted(subMatrix(m, oldN), g)
		if err != nil {
			t.Fatalf("trial %d: prev: %v", trial, err)
		}
		cold, coldReads, err := KMedoidsCounted(m, g)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		warm, reads, err := KMedoidsWarm(m, g, prev, oldN)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		if !slices.Equal(CanonicalLabels(warm.Assign), CanonicalLabels(cold.Assign)) {
			t.Fatalf("trial %d: warm labels diverged from cold after canonical relabeling", trial)
		}
		if diff := warm.Cost - cold.Cost; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: warm cost %v vs cold %v", trial, warm.Cost, cold.Cost)
		}
		if reads >= coldReads {
			t.Fatalf("trial %d: warm read %d entries, cold %d — no savings", trial, reads, coldReads)
		}
	}
}

func TestKMedoidsWarmCostNeverRegresses(t *testing.T) {
	// On arbitrary matrices warm and cold may settle in different local
	// optima, but the warm alternation is non-increasing: its final
	// cost can never exceed the cost of simply extending the previous
	// assignment, and it must read fewer entries than a cold run.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		oldN := 10 + rng.Intn(20)
		appendK := 1 + rng.Intn(6)
		k := 2 + rng.Intn(3)
		n := oldN + appendK
		m := randMatrix(rng, n)

		prev, _, err := KMedoidsCounted(subMatrix(m, oldN), k)
		if err != nil {
			t.Fatalf("trial %d: prev: %v", trial, err)
		}
		_, coldReads, err := KMedoidsCounted(m, k)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		warm, reads, err := KMedoidsWarm(m, k, prev, oldN)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		var probe int64
		assign := make([]int, n)
		copy(assign, prev.Assign)
		start := prev.Cost + kmedoidsAssign(m, prev.Medoids, assign, oldN, n, &probe)
		if warm.Cost > start+1e-9 {
			t.Fatalf("trial %d: warm cost %v regressed past warm-start cost %v", trial, warm.Cost, start)
		}
		if reads >= coldReads {
			t.Fatalf("trial %d: warm read %d entries, cold %d", trial, reads, coldReads)
		}
	}
}

func TestKMedoidsWarmRejectsBadState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randMatrix(rng, 12)
	prev, err := KMedoids(subMatrix(m, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]int(nil), prev.Assign...)
	flipped[0] = (flipped[0] + 1) % 3
	cases := []struct {
		name string
		prev *KMedoidsResult
		k    int
		oldN int
	}{
		{"nil prev", nil, 3, 8},
		{"k mismatch", prev, 2, 8},
		{"oldN mismatch", prev, 3, 9},
		{"oldN beyond n", prev, 3, 13},
		{"medoid out of range", &KMedoidsResult{Medoids: []int{0, 1, 11}, Assign: prev.Assign}, 3, 8},
		{"assign out of range", &KMedoidsResult{Medoids: prev.Medoids, Assign: []int{0, 1, 2, 3, 0, 1, 2, 0}}, 3, 8},
		{"assign not nearest medoid", &KMedoidsResult{Medoids: prev.Medoids, Assign: flipped}, 3, 8},
	}
	for _, tc := range cases {
		if _, _, err := KMedoidsWarm(m, tc.k, tc.prev, tc.oldN); err == nil {
			t.Errorf("%s: want error, got none", tc.name)
		}
	}
}

func TestDBSCANAppendGraphMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		oldN := 5 + rng.Intn(25)
		appendK := 1 + rng.Intn(8)
		n := oldN + appendK
		m := randMatrix(rng, n)
		eps := 0.2 + 0.5*rng.Float64()
		minPts := 1 + rng.Intn(4)

		_, prevAdj, _, err := DBSCANAppendGraph(subMatrix(m, oldN), eps, minPts, nil)
		if err != nil {
			t.Fatalf("trial %d: prev graph: %v", trial, err)
		}
		cold, err := refDBSCAN(m, eps, minPts)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		labels, adj, reads, err := DBSCANAppendGraph(m, eps, minPts, prevAdj)
		if err != nil {
			t.Fatalf("trial %d: append: %v", trial, err)
		}
		if !slices.Equal(labels, cold) {
			t.Fatalf("trial %d: incremental labels diverged from cold DBSCAN\n inc: %v\ncold: %v", trial, labels, cold)
		}
		wantPairs := int64(oldN*appendK + appendK*(appendK-1)/2)
		if reads != wantPairs {
			t.Fatalf("trial %d: read %d pairs, want %d", trial, reads, wantPairs)
		}
		if full := int64(n * (n - 1) / 2); reads >= full {
			t.Fatalf("trial %d: incremental read %d pairs, full triangle is %d", trial, reads, full)
		}
		// The returned graph must chain: appending zero rows on top of
		// it reproduces the same labels.
		again, _, _, err := DBSCANAppendGraph(m, eps, minPts, adj)
		if err != nil {
			t.Fatalf("trial %d: chained append: %v", trial, err)
		}
		if !slices.Equal(again, cold) {
			t.Fatalf("trial %d: chained graph diverged", trial)
		}
		// Copy-on-write: prevAdj rows must be untouched.
		_, check, _, err := DBSCANAppendGraph(subMatrix(m, oldN), eps, minPts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for p := range check {
			if !slices.Equal(check[p], prevAdj[p]) {
				t.Fatalf("trial %d: prevAdj row %d mutated", trial, p)
			}
		}
	}
}

func TestDBSCANAppendGraphBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := randMatrix(rng, 16)
	cold, err := refDBSCAN(m, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	labels, _, reads, err := DBSCANAppendGraph(m, 0.4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(labels, cold) {
		t.Fatal("bootstrap labels diverged from cold DBSCAN")
	}
	if want := int64(16 * 15 / 2); reads != want {
		t.Fatalf("bootstrap read %d pairs, want full triangle %d", reads, want)
	}
}

// randTxs builds deterministic transactions over a small item alphabet.
func randTxs(rng *rand.Rand, n, alphabet int) []Transaction {
	txs := make([]Transaction, n)
	for i := range txs {
		tx := Transaction{}
		for it := 0; it < alphabet; it++ {
			if rng.Float64() < 0.45 {
				tx[fmt.Sprintf("item-%02d", it)] = true
			}
		}
		txs[i] = tx
	}
	return txs
}

func TestAprioriAppendMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		oldN := 4 + rng.Intn(20)
		appendK := 1 + rng.Intn(8)
		alphabet := 4 + rng.Intn(5)
		minSupport := 2 + rng.Intn(3)
		maxLen := 2 + rng.Intn(3)
		txs := randTxs(rng, oldN+appendK, alphabet)

		_, prevCounts, _, err := AprioriAppend(txs[:oldN], 0, nil, minSupport, maxLen)
		if err != nil {
			t.Fatalf("trial %d: bootstrap: %v", trial, err)
		}
		cold, err := refApriori(txs, minSupport, maxLen)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		inc, nextCounts, _, err := AprioriAppend(txs, oldN, prevCounts, minSupport, maxLen)
		if err != nil {
			t.Fatalf("trial %d: append: %v", trial, err)
		}
		if !EqualItemsets(inc, cold) {
			t.Fatalf("trial %d: incremental itemsets diverged from cold\n inc: %v\ncold: %v", trial, inc, cold)
		}
		// The carried counts must chain: a second zero-append run
		// reproduces the same output with no re-expansion, and a zero
		// append scans only re-expanded candidates.
		again, _, scans, err := AprioriAppend(txs, len(txs), nextCounts, minSupport, maxLen)
		if err != nil {
			t.Fatalf("trial %d: chained append: %v", trial, err)
		}
		if !EqualItemsets(again, cold) {
			t.Fatalf("trial %d: chained counts diverged", trial)
		}
		if scans != 0 {
			t.Fatalf("trial %d: zero-append scanned %d transactions", trial, scans)
		}
		// prev must be untouched (copy-on-write).
		_, check, _, err := AprioriAppend(txs[:oldN], 0, nil, minSupport, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		if len(check) != len(prevCounts) {
			t.Fatalf("trial %d: prev counts mutated (len %d vs %d)", trial, len(prevCounts), len(check))
		}
		for k, v := range check {
			if prevCounts[k] != v {
				t.Fatalf("trial %d: prev counts mutated at %q", trial, k)
			}
		}
	}
}

func TestAprioriAppendBootstrapMatchesApriori(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	txs := randTxs(rng, 20, 6)
	cold, err := refApriori(txs, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A nil prev runs the bootstrap regardless of oldN.
	boot, counts, _, err := AprioriAppend(txs, 7, nil, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualItemsets(boot, cold) {
		t.Fatal("bootstrap diverged from cold Apriori")
	}
	if len(counts) == 0 {
		t.Fatal("bootstrap carried no counts")
	}
}

func TestCanonicalLabels(t *testing.T) {
	in := []int{3, 3, -1, 7, 3, 7, 0}
	want := []int{0, 0, -1, 1, 0, 1, 2}
	if got := CanonicalLabels(in); !slices.Equal(got, want) {
		t.Fatalf("CanonicalLabels(%v) = %v, want %v", in, got, want)
	}
}
