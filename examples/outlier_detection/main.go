// Outlier detection over an encrypted log with query-result distance —
// the measure that needs the (encrypted) database contents shared
// (Table I row 3). Result distance is computed by *executing* the
// rewritten queries over the encrypted catalog (CryptDB-style onions);
// queries whose result sets are unlike every other query's are flagged.
// An injected "exfiltration-style" full scan stands out as the outlier.
// With -remote URL the provider is a dpeserver at that URL: the
// encrypted catalog and the public aggregate-evaluation key travel over
// the wire, and the ciphertext execution happens on the server.
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
	w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{
		Seed: "outliers", Queries: 24, Rows: 80,
		IncludeAggregates: true, IncludeJoins: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Inject an unusual query: a full scan touching everything.
	queries := append(append([]string(nil), w.Queries...),
		"SELECT * FROM photoobj")

	owner, err := dpe.NewOwner([]byte("result-distance-demo"), w.Schema, dpe.Config{PaillierBits: 512})
	if err != nil {
		log.Fatal(err)
	}
	if err := owner.DeclareJoins(queries); err != nil {
		log.Fatal(err)
	}

	// Shared with the provider: encrypted log + encrypted DB content.
	encLog, err := owner.EncryptLog(queries, dpe.MeasureResult)
	if err != nil {
		log.Fatal(err)
	}
	encCat, err := owner.EncryptCatalog(w.Catalog)
	if err != nil {
		log.Fatal(err)
	}

	// Provider: a session over the encrypted catalog + aggregate
	// evaluator. It executes the ciphertext log over the ciphertext
	// catalog (queries run concurrently across cores) and detects
	// Knorr–Ng DB(p, D) outliers. Remotely, the catalog and the
	// aggregate-evaluation public key are uploaded at session creation.
	ctx := context.Background()
	var provider dpe.ProviderAPI
	if *remote != "" {
		provider, err = service.NewClient(*remote).NewSession(ctx, dpe.MeasureResult,
			service.WithCatalog(encCat, owner.ResultAggregatorKey()))
	} else {
		provider, err = dpe.NewProvider(dpe.MeasureResult,
			dpe.WithCatalog(encCat, owner.ResultAggregator()),
			dpe.WithParallelism(runtime.NumCPU()))
	}
	if err != nil {
		log.Fatal(err)
	}
	mined, err := provider.Mine(ctx, encLog, dpe.MineSpec{Algorithm: dpe.MineOutliers, P: 0.9, D: 0.95})
	if err != nil {
		log.Fatal(err)
	}
	encM, out := mined.Matrix, mined.Outliers

	// Owner: plaintext ground truth through an owner-side session over
	// the plaintext catalog.
	ownerSide, err := dpe.NewProvider(dpe.MeasureResult,
		dpe.WithCatalog(w.Catalog, nil),
		dpe.WithParallelism(runtime.NumCPU()))
	if err != nil {
		log.Fatal(err)
	}
	plainM, err := ownerSide.DistanceMatrix(ctx, queries)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := dpe.VerifyPreservation(plainM, encM, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result distance preserved over %d pairs: %v\n\n", rep.Pairs, rep.Preserved)

	fmt.Println("outliers flagged by the provider (on ciphertext):")
	for i, o := range out {
		if o {
			fmt.Printf("  query %2d: %s\n", i, queries[i])
		}
	}
	if !out[len(out)-1] {
		log.Fatal("expected the injected full scan to be flagged")
	}
	fmt.Println("\nthe injected full scan was correctly flagged without the provider seeing a single plaintext value")
}
