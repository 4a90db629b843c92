package mining

// Incremental (stateful) variants of the mining algorithms for the
// append path: each accepts the previous run's state plus the appended
// row range and produces the same answer as a cold run over the
// combined input while examining strictly less of the matrix. Each
// variant decides on its own whether a previous state fits, and each
// returns the work it did as a deterministic count (matrix entries
// read, transactions scanned) so the bench harness can gate the perf
// claim without touching a wall clock. With no previous state each
// runs cold, and DBSCAN and Apriori are exactly those cold runs, so
// the append path and the experiments share one implementation.
//
//   - KMedoidsWarm seeds Park–Jun k-medoids from the prior medoids: it
//     assigns every row to them, rejects a prior state whose assignment
//     of the old rows is not that nearest-medoid assignment, and prices
//     the start itself; the first update step re-examines only
//     clusters that gained members — a cluster whose membership is
//     unchanged keeps its medoid exactly, ties included. If the
//     medoids shift, the standard alternation takes over until
//     convergence.
//   - DBSCANAppendGraph maintains the eps-neighborhood graph: only the
//     new-vs-all pairs (oldN·k + k·(k−1)/2) are read from the matrix,
//     the graph is extended copy-on-write, and the labels come from
//     DBSCANGraph over the maintained graph, with cluster ids canonical
//     by first discovery. With no previous graph it reads the full
//     triangle: the cold bootstrap, which is DBSCAN.
//   - AprioriAppend carries the support count of every candidate ever
//     evaluated: known candidates add only the new transactions'
//     counts, and only candidates the level-wise generation re-expands
//     (their support crossed the threshold) pay a full scan. With no
//     carried counts it is Apriori. The tests pin both continuations
//     to textbook references (a matrix-scan DBSCAN and a full-scan
//     Apriori) on random inputs.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// --- counted k-medoids helpers (shared by cold and warm paths) ---

// parkJunInit computes the Park–Jun initial medoids (the k items with
// the smallest normalized distance sums), counting matrix reads.
func parkJunInit(m Matrix, k int, reads *int64) []int {
	n := len(m)
	rowSums := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rowSums[i] += m[i][j]
		}
	}
	v := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if rowSums[i] > 0 {
				v[j] += m[i][j] / rowSums[i]
			}
		}
	}
	*reads += 2 * int64(n) * int64(n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if v[idx[a]] != v[idx[b]] {
			return v[idx[a]] < v[idx[b]]
		}
		return idx[a] < idx[b]
	})
	medoids := append([]int(nil), idx[:k]...)
	sort.Ints(medoids)
	return medoids
}

// kmedoidsAssign assigns rows [lo,hi) to their nearest medoid (lowest
// index wins ties) and returns their cost contribution, summed in row
// order so floating-point association matches a full cold pass.
func kmedoidsAssign(m Matrix, medoids, assign []int, lo, hi int, reads *int64) float64 {
	cost := 0.0
	for i := lo; i < hi; i++ {
		best, bestD := 0, math.Inf(1)
		for c, med := range medoids {
			if d := m[i][med]; d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		cost += bestD
	}
	*reads += int64(hi-lo) * int64(len(medoids))
	return cost
}

// kmedoidsUpdate recomputes each cluster's medoid (the member
// minimizing the within-cluster distance sum; lowest index wins ties).
// When dirty is non-nil, clusters with dirty[c]==false keep their
// medoid without any reads — unchanged membership means an unchanged
// argmin, tie-break included. The returned slice is sorted.
func kmedoidsUpdate(m Matrix, medoids, assign []int, dirty []bool, reads *int64) []int {
	n := len(assign)
	newMedoids := append([]int(nil), medoids...)
	for c := range medoids {
		if dirty != nil && !dirty[c] {
			continue
		}
		bestM, bestSum := medoids[c], math.Inf(1)
		for i := 0; i < n; i++ {
			if assign[i] != c {
				continue
			}
			sum := 0.0
			for j := 0; j < n; j++ {
				if assign[j] == c {
					sum += m[i][j]
					*reads++
				}
			}
			if sum < bestSum {
				bestM, bestSum = i, sum
			}
		}
		newMedoids[c] = bestM
	}
	sort.Ints(newMedoids)
	return newMedoids
}

// kmedoidsRun alternates assignment and update from the given medoids
// until stable, mirroring KMedoids' loop exactly (including the
// 1000-iteration cap and the non-convergence result shape).
func kmedoidsRun(m Matrix, medoids []int, startIter int, reads *int64) (*KMedoidsResult, error) {
	n := len(m)
	assign := make([]int, n)
	res := &KMedoidsResult{}
	for iter := startIter; iter < 1000; iter++ {
		res.Iterations = iter + 1
		cost := kmedoidsAssign(m, medoids, assign, 0, n, reads)
		newMedoids := kmedoidsUpdate(m, medoids, assign, nil, reads)
		if slices.Equal(newMedoids, medoids) {
			res.Medoids = medoids
			res.Assign = append([]int(nil), assign...)
			res.Cost = cost
			return res, nil
		}
		medoids = newMedoids
	}
	res.Medoids = medoids
	res.Assign = append([]int(nil), assign...)
	return res, fmt.Errorf("mining: k-medoids did not converge")
}

// KMedoidsCounted is KMedoids with a deterministic counter of matrix
// entries read — the instrument the incremental-vs-cold bench gates
// compare against.
func KMedoidsCounted(m Matrix, k int) (*KMedoidsResult, int64, error) {
	if err := validate(m); err != nil {
		return nil, 0, err
	}
	n := len(m)
	if k <= 0 || k > n {
		return nil, 0, fmt.Errorf("mining: k=%d outside [1,%d]", k, n)
	}
	var reads int64
	medoids := parkJunInit(m, k, &reads)
	res, err := kmedoidsRun(m, medoids, 0, &reads)
	return res, reads, err
}

// KMedoidsWarm re-clusters a grown matrix starting from a prior
// converged result over its first oldN rows, and returns the matrix
// entries it read. Every row is assigned to the prior medoids (n·K
// reads). An append never changes the old rows' distances, so a prior
// result mined from this matrix's prefix assigns them exactly so; a
// prior assignment that differs is rejected, and the start's cost is
// the one computed here, never a carried value. The first update step
// re-examines only clusters that gained members. If that step moves no
// medoid the clustering has converged at the start; otherwise the
// standard alternation finishes the job, and it never ends above the
// start's cost. The entire Park–Jun initialization (2n² reads) is
// skipped.
//
// prev must be a converged result over exactly the first oldN rows;
// otherwise an error is returned and the caller should run cold.
func KMedoidsWarm(m Matrix, k int, prev *KMedoidsResult, oldN int) (*KMedoidsResult, int64, error) {
	if err := validate(m); err != nil {
		return nil, 0, err
	}
	n := len(m)
	if k <= 0 || k > n {
		return nil, 0, fmt.Errorf("mining: k=%d outside [1,%d]", k, n)
	}
	if prev == nil {
		return nil, 0, fmt.Errorf("mining: warm k-medoids needs a previous result")
	}
	if oldN < 0 || oldN > n {
		return nil, 0, fmt.Errorf("mining: previous result covers %d rows of %d", oldN, n)
	}
	if len(prev.Medoids) != k || len(prev.Assign) != oldN {
		return nil, 0, fmt.Errorf("mining: previous result has %d medoids over %d rows, want %d over %d",
			len(prev.Medoids), len(prev.Assign), k, oldN)
	}
	for c, med := range prev.Medoids {
		if med < 0 || med >= oldN {
			return nil, 0, fmt.Errorf("mining: previous medoid %d outside [0,%d)", med, oldN)
		}
		if c > 0 && prev.Medoids[c-1] >= med {
			return nil, 0, fmt.Errorf("mining: previous medoids not strictly sorted")
		}
	}

	var reads int64
	medoids := append([]int(nil), prev.Medoids...)
	assign := make([]int, n)
	cost := kmedoidsAssign(m, medoids, assign, 0, n, &reads)
	for i, c := range prev.Assign {
		if c != assign[i] {
			return nil, reads, fmt.Errorf("mining: previous result assigns row %d to cluster %d, its nearest medoid's cluster is %d", i, c, assign[i])
		}
	}

	dirty := make([]bool, k)
	for i := oldN; i < n; i++ {
		dirty[assign[i]] = true
	}
	newMedoids := kmedoidsUpdate(m, medoids, assign, dirty, &reads)
	if slices.Equal(newMedoids, medoids) {
		return &KMedoidsResult{
			Medoids:    medoids,
			Assign:     assign,
			Cost:       cost,
			Iterations: 1,
		}, reads, nil
	}
	res, err := kmedoidsRun(m, newMedoids, 1, &reads)
	return res, reads, err
}

// --- DBSCAN over a maintained eps-graph ---

// DBSCANAppendGraph repairs a DBSCAN labeling after rows were appended
// to the matrix, given the eps-graph of the first len(prevAdj) rows,
// and returns the matrix entries it read: exactly oldN·k + k·(k−1)/2
// for k appended rows. Only the new rows' pairs are read; the graph is
// extended copy-on-write (prevAdj is never mutated, so a cached state
// stays safe under concurrent readers), and the labels are recomputed
// by DBSCANGraph over the maintained graph — zero further matrix
// reads, and entry-wise identical to a cold run over the full matrix.
// A nil prevAdj is that cold run, DBSCAN: it reads the full triangle.
// The returned adjacency is the next append's prevAdj.
func DBSCANAppendGraph(m Matrix, eps float64, minPts int, prevAdj [][]int) ([]int, [][]int, int64, error) {
	if err := validate(m); err != nil {
		return nil, nil, 0, err
	}
	if eps < 0 || minPts < 1 {
		return nil, nil, 0, fmt.Errorf("mining: invalid DBSCAN parameters eps=%v minPts=%d", eps, minPts)
	}
	n := len(m)
	oldN := len(prevAdj)
	if oldN > n {
		return nil, nil, 0, fmt.Errorf("mining: previous graph covers %d rows of %d", oldN, n)
	}
	for p, nb := range prevAdj {
		for _, q := range nb {
			if q < 0 || q >= oldN || q == p {
				return nil, nil, 0, fmt.Errorf("mining: previous graph neighbor %d of %d outside [0,%d)", q, p, oldN)
			}
		}
	}
	var reads int64
	adj := make([][]int, n)
	copy(adj, prevAdj)
	copied := make([]bool, oldN)
	for i := oldN; i < n; i++ {
		for j := 0; j < i; j++ {
			reads++
			if m[i][j] <= eps {
				adj[i] = append(adj[i], j)
				if j < oldN && !copied[j] {
					adj[j] = append([]int(nil), prevAdj[j]...)
					copied[j] = true
				}
				adj[j] = append(adj[j], i)
			}
		}
	}
	labels, err := DBSCANGraph(n, adj, minPts)
	if err != nil {
		return nil, nil, 0, err
	}
	return labels, adj, reads, nil
}

// --- Apriori support-count deltas ---

// AprioriAppend mines frequent itemsets over txs given the carried
// support counts from a previous run over the first oldN transactions.
// The carried map holds the support of every candidate the previous
// run evaluated (all single items, plus every level-wise candidate,
// frequent or not); a known candidate's new support is its carried
// count plus its count over only the appended transactions, and only
// candidates outside the map — itemsets whose support crossed the
// threshold and re-entered the level-wise expansion — pay a scan over
// all transactions. Appending can only grow an absolute support, so
// crossings are upward: itemsets newly frequent appear, none vanish.
//
// The output is identical to a cold run, Apriori(txs, minSupport,
// maxLen): the level-wise structure is the same and every support is
// exact. The returned map (a copy — prev is never mutated) is the next
// append's carried state. A nil prev runs the bootstrap: every
// candidate is counted from scratch and recorded. The count returned is
// the transaction membership scans performed.
//
// The carried map keys a single item verbatim and a larger candidate by
// its items joined with NUL (Itemset.Key), so an appended transaction
// whose item is empty or contains a NUL byte fails the call: such an
// item could not be told apart from a larger candidate's key. The old
// transactions' items were checked by the run that counted them.
func AprioriAppend(txs []Transaction, oldN int, prev map[string]int, minSupport, maxLen int) ([]FrequentItemset, map[string]int, int64, error) {
	if minSupport < 1 {
		return nil, nil, 0, fmt.Errorf("mining: minSupport must be >= 1, got %d", minSupport)
	}
	if maxLen < 1 {
		return nil, nil, 0, fmt.Errorf("mining: maxLen must be >= 1, got %d", maxLen)
	}
	if prev == nil {
		prev = map[string]int{}
		oldN = 0
	}
	if oldN < 0 || oldN > len(txs) {
		return nil, nil, 0, fmt.Errorf("mining: previous counts cover %d transactions of %d", oldN, len(txs))
	}
	var scans int64
	counts := make(map[string]int, len(prev)+16)
	for k, v := range prev {
		counts[k] = v
	}
	newTxs := txs[oldN:]

	// Singles: the carried map holds every old item's count; only the
	// new transactions are counted on top.
	for t, tx := range newTxs {
		for item := range tx {
			if item == "" || strings.IndexByte(item, 0) >= 0 {
				return nil, nil, 0, fmt.Errorf("mining: transaction %d has item %q; items must be non-empty and free of NUL bytes", oldN+t, item)
			}
			counts[item]++
		}
		scans++
	}

	// supportFor resolves one candidate's support: delta-count when
	// carried, full scan when the level-wise generation re-expanded it.
	supportFor := func(cand Itemset) int {
		key := cand.Key()
		if c, ok := prev[key]; ok {
			sup := c + supportOf(newTxs, cand)
			scans += int64(len(newTxs))
			counts[key] = sup
			return sup
		}
		sup := supportOf(txs, cand)
		scans += int64(len(txs))
		counts[key] = sup
		return sup
	}

	// Single items are the carried keys without a NUL.
	var level []Itemset
	var out []FrequentItemset
	var items []string
	for item, c := range counts {
		if c >= minSupport && !strings.Contains(item, "\x00") {
			items = append(items, item)
		}
	}
	sort.Strings(items)
	for _, item := range items {
		level = append(level, Itemset{item})
		out = append(out, FrequentItemset{Items: Itemset{item}, Support: counts[item]})
	}
	for size := 2; size <= maxLen && len(level) > 1; size++ {
		candidates := joinLevel(level)
		var next []Itemset
		for _, cand := range candidates {
			sup := supportFor(cand)
			if sup >= minSupport {
				next = append(next, cand)
				out = append(out, FrequentItemset{Items: cand, Support: sup})
			}
		}
		level = next
	}
	return out, counts, scans, nil
}

// EqualItemsets reports whether two frequent-itemset lists are
// identical (same sets, same supports, same order).
func EqualItemsets(a, b []FrequentItemset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Support != b[i].Support || a[i].Items.Key() != b[i].Items.Key() {
			return false
		}
	}
	return true
}

// CanonicalLabels renumbers cluster labels by first occurrence so two
// labelings of the same partition compare equal regardless of which
// ids the algorithms happened to hand out. Negative labels (DBSCAN
// noise) pass through unchanged.
func CanonicalLabels(labels []int) []int {
	out := make([]int, len(labels))
	remap := make(map[int]int)
	for i, l := range labels {
		if l < 0 {
			out[i] = l
			continue
		}
		c, ok := remap[l]
		if !ok {
			c = len(remap)
			remap[l] = c
		}
		out[i] = c
	}
	return out
}
