package mining

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The textbook forms of the three algorithms the provider serves
// through incremental code paths: DBSCAN scanning matrix rows, Apriori
// counting every candidate over every transaction, and kNN sorting a
// row. They exist only here, as references the served functions are
// checked against.

// refDBSCAN is matrix-scan DBSCAN: each point's neighborhood is read
// from its matrix row, the point itself included.
func refDBSCAN(m Matrix, eps float64, minPts int) ([]int, error) {
	if err := validate(m); err != nil {
		return nil, err
	}
	if eps < 0 || minPts < 1 {
		return nil, fmt.Errorf("mining: invalid DBSCAN parameters eps=%v minPts=%d", eps, minPts)
	}
	n := len(m)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -2 // unvisited
	}
	neighbors := func(p int) []int {
		var out []int
		for q := 0; q < n; q++ {
			if m[p][q] <= eps {
				out = append(out, q)
			}
		}
		return out
	}
	cluster := 0
	for p := 0; p < n; p++ {
		if labels[p] != -2 {
			continue
		}
		nb := neighbors(p)
		if len(nb) < minPts {
			labels[p] = Noise
			continue
		}
		labels[p] = cluster
		// Expand: breadth-first over the seed set.
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			q := queue[qi]
			if labels[q] == Noise {
				labels[q] = cluster // border point
			}
			if labels[q] != -2 {
				continue
			}
			labels[q] = cluster
			qnb := neighbors(q)
			if len(qnb) >= minPts {
				queue = append(queue, qnb...)
			}
		}
		cluster++
	}
	return labels, nil
}

// refApriori is full-scan Apriori: every candidate's support is counted
// over every transaction, and any string is an item.
func refApriori(txs []Transaction, minSupport, maxLen int) ([]FrequentItemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("mining: minSupport must be >= 1, got %d", minSupport)
	}
	if maxLen < 1 {
		return nil, fmt.Errorf("mining: maxLen must be >= 1, got %d", maxLen)
	}

	// L1: frequent single items.
	counts := make(map[string]int)
	for _, tx := range txs {
		for item := range tx {
			counts[item]++
		}
	}
	var level []Itemset
	var out []FrequentItemset
	var items []string
	for item, c := range counts {
		if c >= minSupport {
			items = append(items, item)
		}
	}
	sort.Strings(items)
	for _, item := range items {
		level = append(level, Itemset{item})
		out = append(out, FrequentItemset{Items: Itemset{item}, Support: counts[item]})
	}

	// Level-wise candidate generation with prefix joins and support
	// counting by scan.
	for size := 2; size <= maxLen && len(level) > 1; size++ {
		candidates := joinLevel(level)
		var next []Itemset
		for _, cand := range candidates {
			sup := supportOf(txs, cand)
			if sup >= minSupport {
				next = append(next, cand)
				out = append(out, FrequentItemset{Items: cand, Support: sup})
			}
		}
		level = next
	}
	return out, nil
}

// refKNN is sort-based kNN: every other index of row q, stably sorted
// by (distance, index), cut at k.
func refKNN(m Matrix, q, k int) []int {
	n := len(m)
	idx := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != q {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if m[q][idx[a]] != m[q][idx[b]] {
			return m[q][idx[a]] < m[q][idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// tiedMatrix builds a random symmetric matrix with a zero diagonal
// whose entries take one of levels+1 values i/levels, so distances tie
// often.
func tiedMatrix(rng *rand.Rand, n, levels int) Matrix {
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := float64(rng.Intn(levels+1)) / float64(levels)
			m[i][j], m[j][i] = d, d
		}
	}
	return m
}

// TestServedMiningMatchesReference runs the served DBSCAN, Apriori and
// KNN (and the warm continuations the provider runs on appends) against
// the textbook references on 600 random inputs. Distances are drawn
// from a few levels so they tie, eps is usually one of the matrix's own
// distance values, and some transactions carry an item the served
// Apriori must refuse (empty, or containing a NUL byte) instead of
// dropping it.
func TestServedMiningMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const cases = 600
	refused := 0
	for c := 0; c < cases; c++ {
		n := 1 + rng.Intn(30)
		m := tiedMatrix(rng, n, 1+rng.Intn(8))
		eps := rng.Float64()
		if n > 1 && rng.Intn(4) > 0 {
			i := rng.Intn(n)
			eps = m[i][(i+1+rng.Intn(n-1))%n] // one of the matrix's own distances
		}
		minPts := 1 + rng.Intn(5)
		want, err := refDBSCAN(m, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DBSCAN(m, eps, minPts)
		if err != nil {
			t.Fatalf("case %d: DBSCAN: %v", c, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (n=%d eps=%v minPts=%d): DBSCAN %v, reference %v", c, n, eps, minPts, got, want)
		}
		oldN := rng.Intn(n + 1)
		_, prevAdj, _, err := DBSCANAppendGraph(subMatrix(m, oldN), eps, minPts, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, _, _, err := DBSCANAppendGraph(m[oldN:], eps, minPts, prevAdj)
		if err != nil {
			t.Fatalf("case %d: warm DBSCAN: %v", c, err)
		}
		if !slices.Equal(warm, want) {
			t.Fatalf("case %d (n=%d oldN=%d eps=%v minPts=%d): warm DBSCAN %v, reference %v", c, n, oldN, eps, minPts, warm, want)
		}

		q, k := rng.Intn(n), rng.Intn(n)
		nn, err := KNN(m, q, k)
		if err != nil {
			t.Fatalf("case %d: KNN: %v", c, err)
		}
		if ref := refKNN(m, q, k); !slices.Equal(nn, ref) {
			t.Fatalf("case %d (n=%d q=%d k=%d): KNN %v, reference %v", c, n, q, k, nn, ref)
		}
		for i, nb := range Nearest(m[q], q, k) {
			if nb.Index != nn[i] || nb.Distance != m[q][nb.Index] {
				t.Fatalf("case %d: Nearest entry %d is %+v, want index %d at its row distance", c, i, nb, nn[i])
			}
		}

		txs := randTxs(rng, rng.Intn(25), 2+rng.Intn(6))
		bad, refuse := "", len(txs) > 0 && rng.Intn(8) == 0
		if refuse {
			bad = []string{"", "\x00", "item-00\x00", "\x00item-01", "tuple\x00"}[rng.Intn(5)]
			txs[rng.Intn(len(txs))][bad] = true
		}
		minSupport, maxLen := 1+rng.Intn(4), 1+rng.Intn(4)
		ref, err := refApriori(txs, minSupport, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		sets, err := Apriori(txs, minSupport, maxLen)
		if refuse {
			if err == nil {
				t.Fatalf("case %d: Apriori accepted the item %q and returned %d itemsets", c, bad, len(sets))
			}
			refused++
			continue
		}
		if err != nil {
			t.Fatalf("case %d: Apriori: %v", c, err)
		}
		if !EqualItemsets(sets, ref) {
			t.Fatalf("case %d: Apriori %v, reference %v", c, sets, ref)
		}
		oldTx := rng.Intn(len(txs) + 1)
		_, counts, _, err := AprioriAppend(txs[:oldTx], 0, nil, minSupport, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		inc, _, _, err := AprioriAppend(txs, oldTx, counts, minSupport, maxLen)
		if err != nil {
			t.Fatalf("case %d: warm Apriori: %v", c, err)
		}
		if !EqualItemsets(inc, ref) {
			t.Fatalf("case %d (oldN=%d): warm Apriori %v, reference %v", c, oldTx, inc, ref)
		}
	}
	if refused == 0 {
		t.Fatal("no case carried an item Apriori must refuse")
	}
}
