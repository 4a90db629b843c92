package dpe

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mining"
)

// workloadFixture builds a small deterministic workload through the
// public API only.
func workloadFixture(t *testing.T) (*Workload, *Owner) {
	t.Helper()
	w, err := GenerateWorkload(WorkloadConfig{Seed: "api-test", Queries: 18, Rows: 40, IncludeAggregates: true, IncludeJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner([]byte("api-master"), w.Schema, Config{PaillierBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.DeclareJoins(w.Queries); err != nil {
		t.Fatal(err)
	}
	return w, owner
}

// distanceMatrix computes a log's pairwise distances through a fresh
// Provider for measure m.
func distanceMatrix(m Measure, queries []string, opts ...ProviderOption) (Matrix, error) {
	p, err := NewProvider(m, opts...)
	if err != nil {
		return nil, err
	}
	return p.DistanceMatrix(context.Background(), queries)
}

func TestMeasureStrings(t *testing.T) {
	for m, want := range map[Measure]string{
		MeasureToken: "token", MeasureStructure: "structure",
		MeasureResult: "result", MeasureAccessArea: "access-area",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if _, err := Measure(99).mode(); err == nil {
		t.Error("unknown measure must error")
	}
}

func TestEndToEndTokenPreservation(t *testing.T) {
	w, owner := workloadFixture(t)
	encLog, err := owner.EncryptLog(w.Queries, MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := distanceMatrix(MeasureToken, w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := distanceMatrix(MeasureToken, encLog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyPreservation(plain, enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Preserved {
		t.Fatalf("token distance not preserved: %+v", rep)
	}
	// Mining equality on top.
	pk, err := KMedoids(plain, 3)
	if err != nil {
		t.Fatal(err)
	}
	ek, err := KMedoids(enc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pk.Assign {
		if pk.Assign[i] != ek.Assign[i] {
			t.Fatalf("clusterings differ at %d", i)
		}
	}
}

func TestEndToEndStructurePreservation(t *testing.T) {
	w, owner := workloadFixture(t)
	encLog, err := owner.EncryptLog(w.Queries, MeasureStructure)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := distanceMatrix(MeasureStructure, w.Queries)
	enc, err := distanceMatrix(MeasureStructure, encLog)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := VerifyPreservation(plain, enc, 0)
	if !rep.Preserved {
		t.Fatalf("structure distance not preserved: %+v", rep)
	}
}

func TestEndToEndResultPreservation(t *testing.T) {
	w, owner := workloadFixture(t)
	encLog, err := owner.EncryptLog(w.Queries, MeasureResult)
	if err != nil {
		t.Fatal(err)
	}
	encCat, err := owner.EncryptCatalog(w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := distanceMatrix(MeasureResult, w.Queries, WithCatalog(w.Catalog, nil))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := distanceMatrix(MeasureResult, encLog, WithCatalog(encCat, owner.ResultAggregator()))
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := VerifyPreservation(plain, enc, 0)
	if !rep.Preserved {
		t.Fatalf("result distance not preserved: %+v", rep)
	}
}

func TestEndToEndAccessAreaPreservation(t *testing.T) {
	w, owner := workloadFixture(t)
	encLog, err := owner.EncryptLog(w.Queries, MeasureAccessArea)
	if err != nil {
		t.Fatal(err)
	}
	encDomains, err := owner.EncryptDomains(w.Domains)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := distanceMatrix(MeasureAccessArea, w.Queries, WithDomains(w.Domains))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := distanceMatrix(MeasureAccessArea, encLog, WithDomains(encDomains))
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := VerifyPreservation(plain, enc, 0)
	if !rep.Preserved {
		t.Fatalf("access-area distance not preserved: %+v", rep)
	}
}

// measureProviders builds the owner-side (plaintext-artifact) and
// provider-side (encrypted-artifact) sessions for a measure.
func measureProviders(t *testing.T, w *Workload, owner *Owner, m Measure, extra ...ProviderOption) (plain, enc *Provider) {
	t.Helper()
	plainOpts := append([]ProviderOption(nil), extra...)
	encOpts := append([]ProviderOption(nil), extra...)
	switch m {
	case MeasureResult:
		encCat, err := owner.EncryptCatalog(w.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		plainOpts = append(plainOpts, WithCatalog(w.Catalog, nil))
		encOpts = append(encOpts, WithCatalog(encCat, owner.ResultAggregator()))
	case MeasureAccessArea:
		encDomains, err := owner.EncryptDomains(w.Domains)
		if err != nil {
			t.Fatal(err)
		}
		plainOpts = append(plainOpts, WithDomains(w.Domains))
		encOpts = append(encOpts, WithDomains(encDomains))
	}
	plain, err := NewProvider(m, plainOpts...)
	if err != nil {
		t.Fatal(err)
	}
	enc, err = NewProvider(m, encOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return plain, enc
}

// TestProviderDistanceMatrixAllMeasures is the facade's core contract:
// for every measure, the session API built from the shared encrypted
// artifacts computes on ciphertext the same matrix it computes on
// plaintext (Definition 1), and the parallel build equals the
// sequential one entry-wise within 1e-12.
func TestProviderDistanceMatrixAllMeasures(t *testing.T) {
	w, owner := workloadFixture(t)
	ctx := context.Background()
	for _, m := range []Measure{MeasureToken, MeasureStructure, MeasureResult, MeasureAccessArea} {
		t.Run(m.String(), func(t *testing.T) {
			encLog, err := owner.EncryptLog(w.Queries, m)
			if err != nil {
				t.Fatal(err)
			}
			plainP, encP := measureProviders(t, w, owner, m, WithParallelism(runtime.NumCPU()))
			plain, err := plainP.DistanceMatrix(ctx, w.Queries)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := encP.DistanceMatrix(ctx, encLog)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := encP.VerifyPreservation(plain, enc)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Preserved {
				t.Fatalf("%v distance not preserved: %+v", m, rep)
			}

			// Parallel == sequential, per the acceptance bar.
			plainSeq, encSeq := measureProviders(t, w, owner, m, WithParallelism(1))
			seq, err := plainSeq.DistanceMatrix(ctx, w.Queries)
			if err != nil {
				t.Fatal(err)
			}
			seqRep, err := encSeq.VerifyPreservation(seq, plain)
			if err != nil {
				t.Fatal(err)
			}
			if !seqRep.Preserved || seqRep.MaxAbsError > 1e-12 {
				t.Fatalf("parallel build differs from sequential: %+v", seqRep)
			}
		})
	}
}

// TestPreparedLogSizeBytesPositive checks that every measure sizes its
// prepared state above zero, even for a one-query log: a cache that
// charges each prepared log its SizeBytes would otherwise hold it free.
func TestPreparedLogSizeBytesPositive(t *testing.T) {
	w, owner := workloadFixture(t)
	for _, m := range []Measure{MeasureToken, MeasureStructure, MeasureResult, MeasureAccessArea} {
		p, _ := measureProviders(t, w, owner, m)
		pl, err := p.Prepare(t.Context(), w.Queries[:1])
		if err != nil {
			t.Fatal(err)
		}
		if size := pl.SizeBytes(); size <= 0 {
			t.Errorf("%v: a one-query prepared log sizes at %d bytes, want > 0", m, size)
		}
	}
}

func TestProviderRequiresArtifacts(t *testing.T) {
	if _, err := NewProvider(MeasureResult); err == nil {
		t.Fatal("result provider without catalog must error")
	}
	if _, err := NewProvider(MeasureAccessArea); err == nil {
		t.Fatal("access-area provider without domains must error")
	}
	if _, err := NewProvider(Measure(99)); err == nil {
		t.Fatal("unknown measure must error")
	}
	if _, err := NewProvider(MeasureAccessArea, WithDomains(map[string]Domain{}), WithAccessAreaX(1.5)); err == nil {
		t.Fatal("x outside (0,1) must error")
	}
}

// cancelLog is a log big enough (~1.1M pairs) that a matrix build takes
// many milliseconds even on the bitset kernel, so a cancellation
// landing mid-build is observable.
func cancelLog() []string {
	queries := make([]string, 1500)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"SELECT a, b, c FROM t WHERE a > %d AND b < %d AND c IN (%d, %d, %d, %d, %d, %d) OR a = %d",
			i, i*2, i, i+1, i+2, i+3, i+4, i+5, i*3)
	}
	return queries
}

func TestProviderCancellationMidBuild(t *testing.T) {
	p, err := NewProvider(MeasureToken, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.DistanceMatrix(ctx, cancelLog())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestProviderCancellationBeforeBuild(t *testing.T) {
	p, err := NewProvider(MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.DistanceMatrix(ctx, []string{"SELECT a FROM t", "SELECT b FROM t"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProviderDistances(t *testing.T) {
	w, owner := workloadFixture(t)
	ctx := context.Background()
	encLog, err := owner.EncryptLog(w.Queries, MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(MeasureToken, WithParallelism(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	const q = 3
	row, err := p.Distances(ctx, encLog, q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.DistanceMatrix(ctx, encLog)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != len(encLog) || row[q] != 0 {
		t.Fatalf("row = %v", row)
	}
	for j := range row {
		if row[j] != m[q][j] {
			t.Fatalf("Distances[%d] = %v, matrix says %v", j, row[j], m[q][j])
		}
	}
	if _, err := p.Distances(ctx, encLog, len(encLog)); err == nil {
		t.Fatal("out-of-range query index must error")
	}
}

func TestProviderMine(t *testing.T) {
	w, owner := workloadFixture(t)
	ctx := context.Background()
	encLog, err := owner.EncryptLog(w.Queries, MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(MeasureToken, WithParallelism(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	plainP := p // token distance needs no artifacts; same session serves both sides
	for _, spec := range []MineSpec{
		{Algorithm: MineKMedoids, K: 3},
		{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 3},
		{Algorithm: MineCompleteLink, K: 3},
		{Algorithm: MineOutliers, P: 0.9, D: 0.8},
		{Algorithm: MineKNN, K: 4, Query: 1},
	} {
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			encRes, err := p.Mine(ctx, encLog, spec)
			if err != nil {
				t.Fatal(err)
			}
			plainRes, err := plainP.Mine(ctx, w.Queries, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(encRes.Clusters, encRes.Labels, encRes.Outliers, encRes.Neighbors),
				fmt.Sprint(plainRes.Clusters, plainRes.Labels, plainRes.Outliers, plainRes.Neighbors); got != want {
				t.Fatalf("mining on ciphertext differs:\n got %s\nwant %s", got, want)
			}
		})
	}
	if _, err := p.Mine(ctx, encLog, MineSpec{Algorithm: MiningAlgorithm(99)}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

// TestMinePreparedMatchesMining pins MinePrepared, which runs the cold
// bootstrap of incremental mining, against the direct mining package
// call for each algorithm over the same matrix (or transactions).
func TestMinePreparedMatchesMining(t *testing.T) {
	ctx := context.Background()
	w, _ := workloadFixture(t)
	p, err := NewProvider(MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Prepare(ctx, w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.DistanceMatrixPrepared(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	txs, err := p.transactions(pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec MineSpec
		want func() (*MineResult, error)
	}{
		{MineSpec{Algorithm: MineKMedoids, K: 3}, func() (*MineResult, error) {
			c, err := mining.KMedoids(m, 3)
			return &MineResult{Matrix: m, Clusters: c}, err
		}},
		{MineSpec{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 3}, func() (*MineResult, error) {
			l, err := mining.DBSCAN(m, 0.4, 3)
			return &MineResult{Matrix: m, Labels: l}, err
		}},
		{MineSpec{Algorithm: MineCompleteLink, K: 3}, func() (*MineResult, error) {
			l, err := mining.CompleteLink(m, 3)
			return &MineResult{Matrix: m, Labels: l}, err
		}},
		{MineSpec{Algorithm: MineOutliers, P: 0.9, D: 0.8}, func() (*MineResult, error) {
			o, err := mining.Outliers(m, 0.9, 0.8)
			return &MineResult{Matrix: m, Outliers: o}, err
		}},
		{MineSpec{Algorithm: MineKNN, K: 4, Query: 1}, func() (*MineResult, error) {
			nb, err := mining.KNN(m, 1, 4)
			return &MineResult{Matrix: m, Neighbors: nb}, err
		}},
		{MineSpec{Algorithm: MineApriori, MinSupport: 4, MaxLen: 2}, func() (*MineResult, error) {
			sets, err := mining.Apriori(txs, 4, 2)
			return &MineResult{Itemsets: sets}, err
		}},
	} {
		t.Run(tc.spec.Algorithm.String(), func(t *testing.T) {
			got, err := p.MinePrepared(ctx, pl, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.want()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("MinePrepared = %+v, want %+v", got, want)
			}
		})
	}
	t.Run("apriori-result", func(t *testing.T) {
		w, err := GenerateWorkload(WorkloadConfig{Seed: "probe", Queries: 40, Rows: 60})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProvider(MeasureResult, WithCatalog(w.Catalog, nil))
		if err != nil {
			t.Fatal(err)
		}
		testAprioriRuns(t, p, w.Queries, 30, MineSpec{Algorithm: MineApriori, MinSupport: 3, MaxLen: 2})
	})
	t.Run("apriori-token-nul", func(t *testing.T) {
		// A NUL in a literal reaches the token item, which Apriori
		// takes only Go-quoted.
		log := []string{
			"SELECT a FROM t WHERE b = 'x\x00y'",
			"SELECT c FROM t",
			"SELECT a, c FROM t WHERE b = 'x\x00y'",
		}
		got := testAprioriRuns(t, p, log, 2, MineSpec{Algorithm: MineApriori, MinSupport: 2, MaxLen: 3})
		if item := strconv.Quote("'x\x00y'"); !slices.ContainsFunc(got, func(fs mining.FrequentItemset) bool {
			return slices.Equal(fs.Items, mining.Itemset{item})
		}) {
			t.Errorf("no frequent itemset {%s} in %v", item, got)
		}
	})
}

// testAprioriRuns mines log with spec cold and warm from the state of
// its first prefix queries, which encodes to no blob: a restart mines
// cold, as the first run does. Each run must serve
// mining.Apriori over the provider's own transactions, and its single
// itemsets must be exactly the items a direct count finds frequent: no
// item is dropped. It returns mining.Apriori's itemsets.
func testAprioriRuns(t *testing.T, p *Provider, log []string, prefix int, spec MineSpec) []mining.FrequentItemset {
	t.Helper()
	ctx := context.Background()
	pl, err := p.Prepare(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Prepare(ctx, log[:prefix])
	if err != nil {
		t.Fatal(err)
	}
	txs, err := p.transactions(pl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mining.Apriori(txs, spec.MinSupport, spec.MaxLen)
	if err != nil {
		t.Fatal(err)
	}
	support := map[string]int{}
	for _, tx := range txs {
		for item := range tx {
			support[item]++
		}
	}
	var singles []mining.FrequentItemset
	for item, c := range support {
		if c >= spec.MinSupport {
			singles = append(singles, mining.FrequentItemset{Items: mining.Itemset{item}, Support: c})
		}
	}
	slices.SortFunc(singles, func(a, b mining.FrequentItemset) int { return strings.Compare(a.Items[0], b.Items[0]) })
	if len(singles) == 0 {
		t.Fatal("the fixture log has no frequent item")
	}

	_, state, err := p.MineIncremental(ctx, base, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if blob, err := MarshalMineState(state); blob != nil || err != nil {
		t.Fatalf("the apriori state encoded to %x, %v; want no blob", blob, err)
	}
	for _, run := range []struct {
		name string
		prev *MineState
	}{{"cold", nil}, {"warm", state}} {
		got, _, err := p.MineIncremental(ctx, pl, run.prev, spec)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if warm := got.Incremental.Warm && !got.Incremental.ColdFallback; warm != (run.prev != nil) {
			t.Errorf("%s: stats %+v", run.name, got.Incremental)
		}
		if !mining.EqualItemsets(got.Itemsets, want) {
			t.Errorf("%s: served %d itemsets, mining.Apriori over the same transactions finds %d", run.name, len(got.Itemsets), len(want))
		}
		if n := len(singles); len(got.Itemsets) < n || !mining.EqualItemsets(got.Itemsets[:n], singles) {
			t.Errorf("%s: served single itemsets differ from the %d frequent items a direct count finds", run.name, n)
		}
	}
	return want
}

func TestParseMeasure(t *testing.T) {
	for _, m := range []Measure{MeasureToken, MeasureStructure, MeasureResult, MeasureAccessArea} {
		got, err := ParseMeasure(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMeasure(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseMeasure("AccessArea"); err != nil || got != MeasureAccessArea {
		t.Errorf("legacy spelling: %v, %v", got, err)
	}
	if _, err := ParseMeasure("nosuch"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestEncryptedLogLeaksNoPlaintext(t *testing.T) {
	w, owner := workloadFixture(t)
	for _, m := range []Measure{MeasureToken, MeasureStructure, MeasureResult, MeasureAccessArea} {
		encLog, err := owner.EncryptLog(w.Queries, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i, q := range encLog {
			for _, ident := range []string{"photoobj", "specobj", "objid", "mag_r", "STAR", "GALAXY"} {
				if strings.Contains(q, ident) {
					t.Fatalf("%v: query %d leaks %q:\n%s", m, i, ident, q)
				}
			}
		}
	}
}

func TestRunEncryptedRoundTrip(t *testing.T) {
	w, owner := workloadFixture(t)
	encCat, err := owner.EncryptCatalog(w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := owner.RunEncrypted("SELECT COUNT(*) FROM photoobj WHERE mag_r < 20", encCat)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() == 0 {
		t.Fatalf("unexpected result: %+v", res.Rows)
	}
}

// TestVerifyPreservationSizeMismatch feeds the check matrices that are
// not both n×n: it must return an error naming the bad row or the two
// sizes, not panic on a short row.
func TestVerifyPreservationSizeMismatch(t *testing.T) {
	square := Matrix{{0, 1, 2}, {1, 0, 3}, {2, 3, 0}}
	for _, tc := range []struct {
		name       string
		plain, enc Matrix
		want       string
	}{
		{"sizes", Matrix{{0}}, Matrix{{0, 1}, {1, 0}}, "sizes differ: 1 vs 2"},
		{"ragged plain", Matrix{{0, 1, 2}, {1, 0}, {2, 3, 0}}, square, "plaintext matrix row 1 has length 2, want 3"},
		{"ragged enc", square, Matrix{{0}, {1}, {2}}, "encrypted matrix row 0 has length 1, want 3"},
	} {
		rep, err := VerifyPreservation(tc.plain, tc.enc, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: VerifyPreservation = %+v, %v; want an error containing %q", tc.name, rep, err, tc.want)
		}
	}
}

func TestParseExported(t *testing.T) {
	s, err := Parse("SELECT a FROM r WHERE b > 1")
	if err != nil || s == nil {
		t.Fatal(err)
	}
	if _, err := Parse("not sql"); err == nil {
		t.Fatal("bad query must error")
	}
}

func TestSchemaConstruction(t *testing.T) {
	schema := NewSchema()
	schema.MustAddTable("t", []ColumnInfo{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindString}})
	owner, err := NewOwner([]byte("m"), schema, Config{PaillierBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := owner.EncryptLog([]string{"SELECT a FROM t WHERE b = 'x'"}, MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 1 || strings.Contains(enc[0], "'x'") {
		t.Fatalf("encryption failed: %v", enc)
	}
}
