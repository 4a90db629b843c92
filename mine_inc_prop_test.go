package dpe_test

// The incremental-mining property, checked end to end from outside the
// facade: appending k queries and mining incrementally must agree with
// a cold mine over the combined log. For DBSCAN the labels are exactly
// equal after canonical relabeling and for apriori the itemsets are
// exactly equal — on any workload, by construction of the delta
// algorithms. Warm k-medoids only promises label equality on separated
// data (local search from a warm start may land in a different valid
// optimum on arbitrary data), so its exact check runs on grouped logs
// of repeated queries, where the optimum is unambiguous. Every check
// runs in-process against the facade and over the wire against
// dpeserver at 1 and 16 shards, where a chained second append_mine must
// report a warm (non-bootstrap) run.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	dpe "repro"
	"repro/internal/mining"
	"repro/internal/service"
)

func TestMineIncrementalMatchesColdProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11)) // deterministic "random" workloads
	iters := 2
	measures := []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea}
	if testing.Short() {
		iters = 1
		measures = measures[:2] // skip the Paillier-heavy artifact encryptions
	}

	// Two servers bracketing the shard spectrum, like the append
	// property test: shard count must be invisible in the results.
	clients := map[string]*service.Client{}
	for _, shards := range []int{1, 16} {
		reg := service.NewRegistry(service.Config{Parallelism: 2, Shards: shards})
		defer reg.Close()
		srv := httptest.NewServer(service.NewHandler(reg))
		defer srv.Close()
		clients[fmt.Sprintf("shards=%d", shards)] = service.NewClient(srv.URL)
	}

	changed := 0 // old rows whose label a warm run changed, over all checks
	for it := 0; it < iters; it++ {
		total := 9 + rng.Intn(6) // 9..14 queries
		k := 2 + rng.Intn(3)     // 2..4 appended (>= 2: the remote check chains two appends)
		n := total - k
		rows := 16 + rng.Intn(16)
		seed := fmt.Sprintf("mineprop-%d-%d", it, rng.Int63())

		w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{
			Seed: seed, Queries: total, Rows: rows,
			IncludeAggregates: true, IncludeJoins: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		owner, err := dpe.NewOwner([]byte("mineprop:"+seed), w.Schema, dpe.Config{PaillierBits: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.DeclareJoins(w.Queries); err != nil {
			t.Fatal(err)
		}

		// A grouped log for the k-medoids check: three distinct queries,
		// each repeated, so the three zero-diameter groups form a
		// 0-cost k=3 clustering. 15 queries, split 9 + 3 + 3, keeps
		// every stage the check mines balanced at a multiple of three.
		const gn, gtotal = 9, 15
		grouped := make([]string, gtotal)
		for i := range grouped {
			grouped[i] = w.Queries[i%3]
		}

		for _, m := range measures {
			t.Run(fmt.Sprintf("it%d_n%d_k%d_%s", it, n, k, m), func(t *testing.T) {
				localOpts, remoteOpts, err := service.EncryptedArtifactOptions(owner, w, m)
				if err != nil {
					t.Fatal(err)
				}
				local, err := dpe.NewProvider(m, append([]dpe.ProviderOption{dpe.WithParallelism(2)}, localOpts...)...)
				if err != nil {
					t.Fatal(err)
				}

				type logCase struct {
					queries []string
					specs   []dpe.MineSpec
				}
				cases := []logCase{
					{w.Queries, []dpe.MineSpec{{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}}},
				}
				if m != dpe.MeasureAccessArea {
					// Apriori mines element sets; access-area has none.
					cases[0].specs = append(cases[0].specs, dpe.MineSpec{Algorithm: dpe.MineApriori, MinSupport: 3, MaxLen: 3})
				}
				for _, lc := range cases {
					encLog, err := owner.EncryptLog(lc.queries, m)
					if err != nil {
						t.Fatal(err)
					}
					for _, spec := range lc.specs {
						cold, err := local.Mine(ctx, encLog, spec)
						if err != nil {
							t.Fatal(err)
						}
						checkWarmMine(t, ctx, "encrypted local", local, encLog, n, spec, cold, &changed)
						for name, client := range clients {
							sess, err := client.NewSession(ctx, m, remoteOpts...)
							if err != nil {
								t.Fatal(err)
							}
							defer sess.Close(ctx)
							checkRemoteAppendMine(t, ctx, "encrypted remote "+name, sess, encLog, n, spec, cold)
						}
					}
				}

				// The k-medoids case. Warm-vs-cold label equality is a
				// theorem only when cold lands on the grouped log's
				// 0-cost optimum at every stage size the checks mine
				// (Park–Jun's within-cluster medoid update can leave a
				// cold run stuck with two init medoids in one group);
				// when it does, any warm continuation must reach the
				// same 0-cost grouping — separated representatives make
				// that grouping unique. Collapsing representatives
				// (e.g. equal result sets) or a stuck cold stage skip
				// the case instead of comparing incomparable optima.
				if !separatedUnder(t, ctx, local, owner, m, grouped[:3]) {
					t.Logf("representatives not separated under %s; skipping the k-medoids case", m)
					return
				}
				encG, err := owner.EncryptLog(grouped, m)
				if err != nil {
					t.Fatal(err)
				}
				kspec := dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 3}
				gmid := gn + (gtotal-gn)/2
				coldG, err := local.Mine(ctx, encG, kspec)
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range []int{gn, gmid, gtotal} {
					stage, err := local.Mine(ctx, encG[:size], kspec)
					if err != nil {
						t.Fatal(err)
					}
					if stage.Clusters.Cost > 1e-9 {
						t.Logf("cold k-medoids stuck at cost %v over %d grouped queries under %s; skipping the k-medoids case",
							stage.Clusters.Cost, size, m)
						return
					}
				}
				checkWarmMine(t, ctx, "encrypted local grouped", local, encG, gn, kspec, coldG, &changed)
				for name, client := range clients {
					sess, err := client.NewSession(ctx, m, remoteOpts...)
					if err != nil {
						t.Fatal(err)
					}
					defer sess.Close(ctx)
					checkRemoteAppendMine(t, ctx, "encrypted remote grouped "+name, sess, encG, gn, kspec, coldG)
				}
			})
		}
	}
	// At least one warm run must have changed an old row's label, or the
	// ChangedLabels check above compared empty lists only.
	if changed == 0 {
		t.Error("no warm run changed an old row's label")
	}
}

// separatedUnder reports whether the given queries are pairwise at
// least 0.3 apart under the measure, on ciphertext — the precondition
// for the grouped k-medoids log to have one unambiguous optimum.
func separatedUnder(t *testing.T, ctx context.Context, p *dpe.Provider, owner *dpe.Owner, m dpe.Measure, reps []string) bool {
	t.Helper()
	enc, err := owner.EncryptLog(reps, m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.DistanceMatrix(ctx, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		for j := range d[i] {
			if i != j && d[i][j] < 0.3 {
				return false
			}
		}
	}
	return true
}

// checkWarmMine asserts Prepare(log[:n]) + bootstrap + ExtendPrepared +
// warm MineIncremental agrees with the given cold Mine over the whole
// log, through the facade. For DBSCAN and k-medoids, ChangedLabels
// must list exactly the old rows whose canonical label differs between
// the bootstrap and the warm result; their number is added to changed.
func checkWarmMine(t *testing.T, ctx context.Context, label string, p *dpe.Provider, log []string, n int, spec dpe.MineSpec, cold *dpe.MineResult, changed *int) {
	t.Helper()
	pl, err := p.Prepare(ctx, log[:n])
	if err != nil {
		t.Fatalf("%s: prepare: %v", label, err)
	}
	boot, state, err := p.MineIncremental(ctx, pl, nil, spec)
	if err != nil {
		t.Fatalf("%s: bootstrap: %v", label, err)
	}
	if boot.Incremental == nil || boot.Incremental.Warm {
		t.Fatalf("%s: bootstrap must report a cold run, got %+v", label, boot.Incremental)
	}
	plAll, err := p.ExtendPrepared(ctx, pl, log[n:])
	if err != nil {
		t.Fatalf("%s: extend: %v", label, err)
	}
	warm, _, err := p.MineIncremental(ctx, plAll, state, spec)
	if err != nil {
		t.Fatalf("%s: warm mine: %v", label, err)
	}
	if warm.Incremental == nil || !warm.Incremental.Warm {
		t.Fatalf("%s: expected a warm run, got %+v", label, warm.Incremental)
	}
	wantPairs := int64(n)*int64(len(log)-n) + int64(len(log)-n)*int64(len(log)-n-1)/2
	if spec.Algorithm != dpe.MineApriori && warm.Incremental.PairsComputed != wantPairs {
		t.Errorf("%s: warm run computed %d pairs, want the append delta %d",
			label, warm.Incremental.PairsComputed, wantPairs)
	}
	if spec.Algorithm != dpe.MineApriori {
		checkWarmRows(t, label, spec, boot.Matrix, warm, cold.Matrix)
	}
	if spec.Algorithm == dpe.MineDBSCAN || spec.Algorithm == dpe.MineKMedoids {
		want := changedRows(partition(boot), partition(warm), n)
		if got := warm.Incremental.ChangedLabels; !slices.Equal(got, want) {
			t.Errorf("%s: ChangedLabels %v, want the old rows whose label changed %v", label, got, want)
		}
		*changed += len(want)
	}
	compareMine(t, label+" warm vs cold", spec, warm, cold)
}

// checkWarmRows asserts a warm run's appended rows equal the cold
// matrix's rows base..n−1 bit for bit, and that spliced onto the base
// matrix they equal the cold matrix, as a client splices them. A warm
// DBSCAN run holds those rows alone; the other algorithms' matrix must
// equal the cold one too.
func checkWarmRows(t *testing.T, label string, spec dpe.MineSpec, base dpe.Matrix, warm *dpe.MineResult, cold dpe.Matrix) {
	t.Helper()
	if (spec.Algorithm == dpe.MineDBSCAN) != (warm.Matrix == nil) {
		t.Errorf("%s: a warm %s run holds a matrix: %v", label, spec.Algorithm, warm.Matrix != nil)
	}
	if !sameBits(warm.Rows, cold[len(base):]) {
		t.Errorf("%s: the warm run's rows differ from the cold matrix's rows %d..%d", label, len(base), len(cold)-1)
	}
	spliced, err := dpe.SpliceMatrixRows(base, warm.Rows)
	if err != nil {
		t.Fatalf("%s: splice the warm rows: %v", label, err)
	}
	if !sameBits(spliced, cold) {
		t.Errorf("%s: base matrix + warm rows differs from the cold matrix", label)
	}
	if warm.Matrix != nil && !sameBits(warm.Matrix, cold) {
		t.Errorf("%s: the warm run's matrix differs from the cold matrix", label)
	}
}

// sameBits reports whether two matrices have the same shape and the
// same float64 bits in every entry.
func sameBits(a, b dpe.Matrix) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	})
}

// partition is a result's per-row clustering: the k-medoids assignment
// or the DBSCAN labels.
func partition(r *dpe.MineResult) []int {
	if r.Clusters != nil {
		return r.Clusters.Assign
	}
	return r.Labels
}

// changedRows lists the rows i < n whose canonical label differs
// between two clusterings.
func changedRows(before, after []int, n int) []int {
	cb, ca := mining.CanonicalLabels(before), mining.CanonicalLabels(after)
	var out []int
	for i := 0; i < n; i++ {
		if cb[i] != ca[i] {
			out = append(out, i)
		}
	}
	return out
}

// checkRemoteAppendMine asserts the batched logs:append_mine round trip
// agrees with the local cold mine, then chains a second append on top
// of the combined log and asserts the server ran it warm from the
// cached mining state.
func checkRemoteAppendMine(t *testing.T, ctx context.Context, label string, sess *service.Session, log []string, n int, spec dpe.MineSpec, cold *dpe.MineResult) {
	t.Helper()
	k1 := (len(log) - n) / 2 // first append; >= 1 because k >= 2
	mid := n + k1

	var old dpe.Matrix
	var err error
	if spec.Algorithm != dpe.MineApriori {
		if old, err = sess.DistanceMatrix(ctx, log[:n]); err != nil {
			t.Fatalf("%s: base matrix: %v", label, err)
		}
	}
	m1, res1, err := sess.AppendMine(ctx, old, log[:n], log[n:mid], spec)
	if err != nil {
		t.Fatalf("%s: append_mine: %v", label, err)
	}
	if res1.Incremental == nil {
		t.Fatalf("%s: append_mine result carries no incremental stats", label)
	}
	m2, res2, err := sess.AppendMine(ctx, m1, log[:mid], log[mid:], spec)
	if err != nil {
		t.Fatalf("%s: chained append_mine: %v", label, err)
	}
	if res2.Incremental == nil || !res2.Incremental.Warm {
		t.Errorf("%s: chained append_mine must run warm from the cached state, got %+v",
			label, res2.Incremental)
	}
	if spec.Algorithm != dpe.MineApriori {
		if !reflect.DeepEqual(m2, cold.Matrix) {
			t.Errorf("%s: spliced matrix differs from the cold mine's matrix", label)
		}
	}
	compareMine(t, label+" vs cold", spec, res2, cold)
}

// compareMine asserts two mine results agree: DBSCAN and k-medoids
// labels exactly equal after canonical relabeling (plus k-medoids cost
// within tolerance), apriori itemsets exactly equal.
func compareMine(t *testing.T, label string, spec dpe.MineSpec, got, want *dpe.MineResult) {
	t.Helper()
	switch spec.Algorithm {
	case dpe.MineKMedoids:
		if math.Abs(got.Clusters.Cost-want.Clusters.Cost) > 1e-9 {
			t.Errorf("%s: k-medoids cost %v differs from cold cost %v",
				label, got.Clusters.Cost, want.Clusters.Cost)
		}
		if !reflect.DeepEqual(mining.CanonicalLabels(got.Clusters.Assign), mining.CanonicalLabels(want.Clusters.Assign)) {
			t.Errorf("%s: k-medoids labels differ after canonical relabeling:\n got %v\nwant %v",
				label, got.Clusters.Assign, want.Clusters.Assign)
		}
	case dpe.MineDBSCAN:
		if !reflect.DeepEqual(mining.CanonicalLabels(got.Labels), mining.CanonicalLabels(want.Labels)) {
			t.Errorf("%s: dbscan labels differ after canonical relabeling:\n got %v\nwant %v",
				label, got.Labels, want.Labels)
		}
	case dpe.MineApriori:
		if !mining.EqualItemsets(got.Itemsets, want.Itemsets) {
			t.Errorf("%s: apriori itemsets differ (%d vs %d sets)",
				label, len(got.Itemsets), len(want.Itemsets))
		}
	default:
		t.Fatalf("%s: compareMine has no rule for %s", label, spec.Algorithm)
	}
}
