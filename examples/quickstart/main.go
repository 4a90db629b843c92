// Quickstart: encrypt an SQL query log so token distance is preserved,
// hand the ciphertext log to a "service provider", cluster it there, and
// check the clustering equals the plaintext one (Definition 1 of the
// paper in five minutes).
//
// With -remote URL the provider is a real dpeserver at that URL instead
// of an in-process session — same API, same results:
//
//	go run ./cmd/dpeserver &
//	go run ./examples/quickstart -remote http://localhost:8433
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"

	dpe "repro"
	"repro/internal/service"
)

func main() {
	remote := flag.String("remote", "", "dpeserver base URL; empty runs the provider in-process")
	flag.Parse()
	// 1. The data owner's schema and (secret) log.
	schema := dpe.NewSchema()
	schema.MustAddTable("patients", []dpe.ColumnInfo{
		{Name: "id", Kind: dpe.KindInt},
		{Name: "age", Kind: dpe.KindInt},
		{Name: "city", Kind: dpe.KindString},
		{Name: "bill", Kind: dpe.KindFloat},
	})
	queries := []string{
		"SELECT id FROM patients WHERE age > 65",
		"SELECT id FROM patients WHERE age > 65 AND city = 'berlin'",
		"SELECT id, bill FROM patients WHERE age > 65",
		"SELECT city FROM patients WHERE bill >= 1000",
		"SELECT city FROM patients WHERE bill >= 2000",
		"SELECT COUNT(*) FROM patients WHERE city = 'karlsruhe'",
	}

	// 2. Derive a deployment from a master secret and encrypt the log
	//    under the token-distance DPE-scheme (Table I row 1: DET).
	owner, err := dpe.NewOwner([]byte("a real deployment uses a random 32-byte secret"), schema, dpe.Config{PaillierBits: 512})
	if err != nil {
		log.Fatal(err)
	}
	encLog, err := owner.EncryptLog(queries, dpe.MeasureToken)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("what the service provider sees:")
	for _, q := range encLog {
		fmt.Println(" ", truncate(q, 100))
	}

	// 3. Provider side: one session over the shared artifacts (token
	//    distance needs only the log), then distances + clustering — on
	//    ciphertext, fanned out over all cores. With -remote the session
	//    lives on a dpeserver and these calls go over HTTP; the
	//    dpe.ProviderAPI interface makes the two interchangeable.
	ctx := context.Background()
	var provider dpe.ProviderAPI
	if *remote != "" {
		provider, err = service.NewClient(*remote).NewSession(ctx, dpe.MeasureToken)
	} else {
		provider, err = dpe.NewProvider(dpe.MeasureToken, dpe.WithParallelism(runtime.NumCPU()))
	}
	if err != nil {
		log.Fatal(err)
	}
	encMined, err := provider.Mine(ctx, encLog, dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	encMatrix, encClusters := encMined.Matrix, encMined.Clusters

	// 4. Owner side: the same session API on plaintext, for comparison.
	//    It runs in-process even with -remote: the plaintext log never
	//    leaves the owner.
	ownerSide, err := dpe.NewProvider(dpe.MeasureToken, dpe.WithParallelism(runtime.NumCPU()))
	if err != nil {
		log.Fatal(err)
	}
	plainMined, err := ownerSide.Mine(ctx, queries, dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	plainMatrix, plainClusters := plainMined.Matrix, plainMined.Clusters

	// 5. Definition 1: same distances, hence same mining result.
	rep, err := dpe.VerifyPreservation(plainMatrix, encMatrix, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistance-preserving: %v (max error %.2e over %d pairs)\n",
		rep.Preserved, rep.MaxAbsError, rep.Pairs)
	fmt.Println("\ncluster assignment  plaintext:", plainClusters.Assign)
	fmt.Println("cluster assignment  ciphertext:", encClusters.Assign)
	same := true
	for i := range plainClusters.Assign {
		if plainClusters.Assign[i] != encClusters.Assign[i] {
			same = false
		}
	}
	fmt.Println("mining results identical:", same)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
