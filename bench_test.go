package dpe

// The benchmark harness regenerates every evaluation artifact of the
// paper (docs/ARCHITECTURE.md, "Paper experiments") and measures the
// system's performance:
//
//	BenchmarkTable1_*            — E1: Table I rows (one per measure)
//	BenchmarkFig1_Taxonomy       — E2: Fig. 1 attack advantages
//	BenchmarkMiningEquality      — E3: mining-result equality, 5 algorithms
//	BenchmarkAccessAreaSecurity  — E4: Section IV-C refinement
//	BenchmarkSharedInfo          — E5: shared-information columns
//	Benchmark<class>_*           — P1: encryption throughput per PPE class
//	BenchmarkOPE_DomainBits      — P2: OPE cost vs domain width
//	BenchmarkPaillier_*          — P3: HOM operation costs
//	BenchmarkDistance_*          — P4: distance-matrix construction
//	BenchmarkBuildMatrix/*       — P4b: sequential vs parallel engine
//	BenchmarkEndToEnd_*          — P5: encrypt-log + mine pipelines
//
// Run: go test -bench . -benchmem
// The experiment benches print their paper-style table once per run
// (b.N iterations recompute the result to time it).

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"testing"

	"repro/internal/crypto/det"
	"repro/internal/crypto/hom"
	"repro/internal/crypto/ope"
	"repro/internal/crypto/prf"
	"repro/internal/crypto/prob"
	"repro/internal/experiments"
)

// benchParams scale the experiment benches down from DefaultParams
// (docs/ARCHITECTURE.md, "Paper experiments").
var benchParams = experiments.Params{Seed: "seed-42", Queries: 40, Rows: 100, PaillierBits: 512}

// skipShort guards the heavyweight benchmarks (full experiment
// pipelines, matrix builds over executed logs) so `go test -short
// -bench .` — the CI shape — stays fast. The deterministic smoke
// coverage of the same paths lives in internal/bench.
func skipShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("heavyweight benchmark; run without -short")
	}
}

var printOnce sync.Once

// --- E1: Table I ---

func benchTable1(b *testing.B, row int) {
	b.Helper()
	skipShort(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if rows[row].Procedure.Selection.Chosen == nil {
			b.Fatalf("row %d: no appropriate class found", row)
		}
		if i == 0 {
			out = experiments.RenderTable1(rows)
		}
	}
	printOnce.Do(func() { fmt.Println(out) })
}

func BenchmarkTable1_TokenDistance(b *testing.B)      { benchTable1(b, 0) }
func BenchmarkTable1_StructureDistance(b *testing.B)  { benchTable1(b, 1) }
func BenchmarkTable1_ResultDistance(b *testing.B)     { benchTable1(b, 2) }
func BenchmarkTable1_AccessAreaDistance(b *testing.B) { benchTable1(b, 3) }

// --- E2: Fig. 1 ---

func BenchmarkFig1_Taxonomy(b *testing.B) {
	skipShort(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if !experiments.OrderingHolds(rows) {
			b.Fatalf("Fig. 1 ordering violated: %+v", rows)
		}
		if i == 0 {
			out = experiments.RenderFig1(rows)
		}
	}
	fmt.Println(out)
}

// --- E3: mining equality ---

func BenchmarkMiningEquality(b *testing.B) {
	skipShort(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, ctrl, err := experiments.MiningEquality(benchParams, experiments.DefaultMiningParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Equal {
				b.Fatalf("%s/%s differs", r.Measure, r.Algorithm)
			}
		}
		if !ctrl.MatrixDiffers {
			b.Fatal("negative control did not differ")
		}
		if i == 0 {
			out = experiments.RenderMining(rows, ctrl)
		}
	}
	fmt.Println(out)
}

// --- E4: access-area security ---

func BenchmarkAccessAreaSecurity(b *testing.B) {
	skipShort(b)
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AccessAreaSecurity(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Preserved.Preserved || rep.Improved == 0 {
			b.Fatalf("E4 failed: %+v", rep)
		}
		if i == 0 {
			out = experiments.RenderAccessAreaSecurity(rep)
		}
	}
	fmt.Println(out)
}

// --- E5: shared information ---

func BenchmarkSharedInfo(b *testing.B) {
	skipShort(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SharedInfo(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			out = experiments.RenderSharedInfo(rows)
		}
	}
	fmt.Println(out)
}

// --- E6: association rules over encrypted logs ---

func BenchmarkAssociationRules(b *testing.B) {
	skipShort(b)
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AssociationRules(benchParams, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.ShapesEqual {
			b.Fatal("rule shapes differ")
		}
		if i == 0 {
			out = experiments.RenderRules(rep)
		}
	}
	fmt.Println(out)
}

// --- P1: encryption throughput per class ---

func BenchmarkPROB_Encrypt(b *testing.B) {
	s := prob.NewFromSeed([]byte("bench"))
	pt := []byte("SELECT-constant-0123456789")
	b.SetBytes(int64(len(pt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDET_Encrypt(b *testing.B) {
	s := det.NewFromSeed([]byte("bench"))
	pt := []byte("SELECT-constant-0123456789")
	b.SetBytes(int64(len(pt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Encrypt(pt)
	}
}

func BenchmarkDET_Decrypt(b *testing.B) {
	s := det.NewFromSeed([]byte("bench"))
	ct := s.Encrypt([]byte("SELECT-constant-0123456789"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// --- P2: OPE cost vs domain width ---

func BenchmarkOPE_DomainBits(b *testing.B) {
	for _, bits := range []uint{16, 32, 48, 64} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			s, err := ope.New([]byte("bench"), ope.Params{DomainBits: bits, ExpansionBits: 16})
			if err != nil {
				b.Fatal(err)
			}
			max := uint64(1)<<(bits-1) - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Encrypt(uint64(i) & max); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOPE_Hypergeometric(b *testing.B) {
	s, err := ope.New([]byte("bench"), ope.Params{DomainBits: 12, ExpansionBits: 8, Hypergeometric: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(uint64(i) & 0xFFF); err != nil {
			b.Fatal(err)
		}
	}
}

// --- P3: Paillier operation costs ---

var benchKeyOnce sync.Once
var benchKey *hom.PrivateKey

func paillierKey(b *testing.B) *hom.PrivateKey {
	b.Helper()
	benchKeyOnce.Do(func() {
		k, err := hom.GenerateKey(prf.NewDRBG([]byte("bench"), []byte("pk")), 1024)
		if err != nil {
			panic(err)
		}
		benchKey = k
	})
	return benchKey
}

func BenchmarkPaillier_Encrypt(b *testing.B) {
	k := paillierKey(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.EncryptInt64(nil, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaillier_Decrypt(b *testing.B) {
	k := paillierKey(b)
	c, _ := k.EncryptInt64(nil, 123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaillier_Add(b *testing.B) {
	k := paillierKey(b)
	c1, _ := k.EncryptInt64(nil, 1)
	c2, _ := k.EncryptInt64(nil, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Add(c1, c2)
	}
}

func BenchmarkPaillier_MulConst(b *testing.B) {
	k := paillierKey(b)
	c, _ := k.EncryptInt64(nil, 7)
	factor := big.NewInt(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MulConst(c, factor)
	}
}

// --- P4: distance-matrix construction per measure ---

func benchWorkload(b *testing.B, n int) (*Workload, *Owner) {
	b.Helper()
	w, err := GenerateWorkload(WorkloadConfig{Seed: "bench", Queries: n, Rows: 80, IncludeAggregates: true, IncludeJoins: true})
	if err != nil {
		b.Fatal(err)
	}
	owner, err := NewOwner([]byte("bench-master"), w.Schema, Config{PaillierBits: 512})
	if err != nil {
		b.Fatal(err)
	}
	if err := owner.DeclareJoins(w.Queries); err != nil {
		b.Fatal(err)
	}
	return w, owner
}

func BenchmarkDistance_TokenMatrix(b *testing.B) {
	skipShort(b)
	w, _ := benchWorkload(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distanceMatrix(MeasureToken, w.Queries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistance_StructureMatrix(b *testing.B) {
	skipShort(b)
	w, _ := benchWorkload(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distanceMatrix(MeasureStructure, w.Queries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistance_ResultMatrix(b *testing.B) {
	skipShort(b)
	w, _ := benchWorkload(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distanceMatrix(MeasureResult, w.Queries, WithCatalog(w.Catalog, nil)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistance_AccessAreaMatrix(b *testing.B) {
	skipShort(b)
	w, _ := benchWorkload(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distanceMatrix(MeasureAccessArea, w.Queries, WithDomains(w.Domains)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- P4b: the parallel distance engine, sequential vs worker pool ---

// BenchmarkBuildMatrix measures a full Provider.DistanceMatrix over a
// 64-query result-distance workload — the heaviest pair function, since
// preparation executes every query over the catalog. "seq" is the
// sequential engine; "par-N" fans both the per-query execution and the
// upper-triangle fan-out over N workers. All variants produce entry-wise
// identical matrices (TestProviderDistanceMatrixAllMeasures pins that).
func BenchmarkBuildMatrix(b *testing.B) {
	skipShort(b)
	w, _ := benchWorkload(b, 64)
	run := func(b *testing.B, parallelism int) {
		b.Helper()
		p, err := NewProvider(MeasureResult, WithCatalog(w.Catalog, nil), WithParallelism(parallelism))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.DistanceMatrix(ctx, w.Queries); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq", func(b *testing.B) { run(b, 1) }) // parallelism 1
	seen := map[int]bool{1: true}                  // par-1 would duplicate seq
	for _, par := range []int{4, runtime.NumCPU()} {
		if seen[par] {
			continue
		}
		seen[par] = true
		b.Run(fmt.Sprintf("par-%d", par), func(b *testing.B) { run(b, par) })
	}
}

// --- P5: end-to-end pipelines ---

func BenchmarkEndToEnd_EncryptLogToken(b *testing.B) {
	skipShort(b)
	w, owner := benchWorkload(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := owner.EncryptLog(w.Queries, MeasureToken); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEnd_EncryptCatalog(b *testing.B) {
	skipShort(b)
	w, owner := benchWorkload(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := owner.EncryptCatalog(w.Catalog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEnd_EncryptAndCluster(b *testing.B) {
	skipShort(b)
	w, owner := benchWorkload(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encLog, err := owner.EncryptLog(w.Queries, MeasureToken)
		if err != nil {
			b.Fatal(err)
		}
		m, err := distanceMatrix(MeasureToken, encLog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := KMedoids(m, 4); err != nil {
			b.Fatal(err)
		}
	}
}
