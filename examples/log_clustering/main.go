// Log clustering as a service: the scenario from the paper's
// introduction. A SkyServer-like astronomy archive wants a provider to
// cluster its SQL query log by query structure without revealing
// queries. Structure distance admits PROB constants (Table I row 2), so
// even equal constants look different in the shared log — yet the
// clustering is identical.
// With -remote URL the provider is a dpeserver at that URL; the
// clustering output is identical to the in-process run.
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
	// A deterministic synthetic SkyServer-like workload stands in for
	// the real (proprietary) logs; see docs/ARCHITECTURE.md, "Paper
	// experiments".
	w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{
		Seed: "log-clustering", Queries: 40, Rows: 100,
		IncludeAggregates: true, IncludeJoins: true, IncludeLike: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	owner, err := dpe.NewOwner([]byte("archive-master-secret"), w.Schema, dpe.Config{PaillierBits: 512})
	if err != nil {
		log.Fatal(err)
	}
	if err := owner.DeclareJoins(w.Queries); err != nil {
		log.Fatal(err)
	}

	encLog, err := owner.EncryptLog(w.Queries, dpe.MeasureStructure)
	if err != nil {
		log.Fatal(err)
	}

	// Provider: one session, two clusterings over ciphertext. Structure
	// distance is a log-only measure, so the session needs no shared
	// artifacts beyond the encrypted log itself. In-process and remote
	// sessions expose the same dpe.ProviderAPI.
	ctx := context.Background()
	var provider dpe.ProviderAPI
	if *remote != "" {
		provider, err = service.NewClient(*remote).NewSession(ctx, dpe.MeasureStructure)
	} else {
		provider, err = dpe.NewProvider(dpe.MeasureStructure, dpe.WithParallelism(runtime.NumCPU()))
	}
	if err != nil {
		log.Fatal(err)
	}
	mined, err := provider.Mine(ctx, encLog, dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 5})
	if err != nil {
		log.Fatal(err)
	}
	encM, kmed := mined.Matrix, mined.Clusters
	dbscanMined, err := provider.Mine(ctx, encLog, dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.35, MinPts: 3})
	if err != nil {
		log.Fatal(err)
	}
	dbscan := dbscanMined.Labels

	// Owner: validate against plaintext with an in-process session of
	// the same measure, so the plaintext log never leaves the owner.
	ownerSide, err := dpe.NewProvider(dpe.MeasureStructure, dpe.WithParallelism(runtime.NumCPU()))
	if err != nil {
		log.Fatal(err)
	}
	plainM, err := ownerSide.DistanceMatrix(ctx, w.Queries)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := dpe.VerifyPreservation(plainM, encM, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("structure distance preserved over %d pairs: %v\n\n", rep.Pairs, rep.Preserved)

	fmt.Println("k-medoids clusters of the ENCRYPTED log (shown with the owner's plaintext for readability):")
	for c, med := range kmed.Medoids {
		fmt.Printf("\ncluster %d — medoid: %s\n", c, w.Queries[med])
		n := 0
		for i, a := range kmed.Assign {
			if a == c && n < 4 {
				fmt.Printf("    %s\n", w.Queries[i])
				n++
			}
		}
	}

	noise := 0
	for _, l := range dbscan {
		if l == dpe.Noise {
			noise++
		}
	}
	fmt.Printf("\nDBSCAN over ciphertext: %d noise queries (structurally unusual workload)\n", noise)
}
