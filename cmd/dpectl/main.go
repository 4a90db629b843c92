// Command dpectl drives the DPE pipeline interactively:
//
//	dpectl gen      -queries 20                 # generate a synthetic log
//	dpectl encrypt  -measure token -queries 20  # encrypt the log, print it
//	dpectl distance -measure token -queries 20  # pairwise distance matrix
//	dpectl mine     -measure token -k 4         # cluster the encrypted log
//	dpectl mine     -algorithm apriori -min-support 4   # frequent itemsets; also
//	                dbscan|complete-link|outliers|knn via -eps/-minpts/-p/-d/-query
//	dpectl neighbors -query 3 -k 5              # exact top-K neighbors
//	dpectl verify   -measure token              # check Definition 1
//	dpectl export   -remote URL -session ID -o bundle.dpe   # portable tenant bundle
//	dpectl import   -remote URL bundle.dpe      # restore a bundle (warm caches)
//
// Everything is deterministic in -seed; the master key comes from
// -master (do not reuse the default outside demos). -par sizes the
// provider's worker pool (0 means all cores).
//
// With -remote URL, the provider side runs against a dpeserver at that
// URL instead of in-process: the encrypted artifacts travel over the
// wire, and the encrypted log's matrix, mining result or neighbors come
// back over HTTP. The plaintext log stays with the owner: verify builds
// its matrix and checks Definition 1 in-process. The output is
// identical either way — that is the wire format's preservation
// property.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	dpe "repro"
	"repro/internal/service"
)

// cliConfig is the fully-validated outcome of parsing the dpectl
// command line: the subcommand plus its parameters.
type cliConfig struct {
	cmd        string
	seed       string
	master     string
	queries    int
	rows       int
	measure    dpe.Measure
	k          int
	query      int
	par        int
	remote     string
	session    string // export: which session to bundle
	out        string // export: bundle file to write
	in         string // import: bundle file to read
	algorithm  dpe.MiningAlgorithm
	eps        float64
	minPts     int
	p, d       float64
	minSupport int
	maxLen     int
}

// mineSpec assembles the MineSpec the mine subcommand runs. Validate
// only reads the fields the chosen algorithm uses, so setting all of
// them is harmless.
func (c *cliConfig) mineSpec() dpe.MineSpec {
	return dpe.MineSpec{
		Algorithm: c.algorithm, K: c.k, Eps: c.eps, MinPts: c.minPts,
		P: c.p, D: c.d, Query: c.query,
		MinSupport: c.minSupport, MaxLen: c.maxLen,
	}
}

// commands are the valid subcommands.
var commands = map[string]bool{
	"gen": true, "encrypt": true, "distance": true, "mine": true,
	"neighbors": true, "verify": true, "export": true, "import": true,
}

// parseConfig parses and validates `dpectl <cmd> [flags]` without
// exiting the process, so tests can drive it.
func parseConfig(args []string) (*cliConfig, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("missing command: %s", usageLine)
	}
	c := &cliConfig{cmd: args[0]}
	if !commands[c.cmd] {
		return nil, fmt.Errorf("unknown command %q: %s", c.cmd, usageLine)
	}
	fs := flag.NewFlagSet(c.cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	seed := fs.String("seed", "dpectl", "workload seed")
	master := fs.String("master", "dpectl-demo-master", "master secret")
	queries := fs.Int("queries", 20, "queries in the log")
	rowsN := fs.Int("rows", 80, "rows per table")
	measureName := fs.String("measure", "token", "measure: token|structure|result|access-area")
	k := fs.Int("k", 4, "clusters for mine / neighbors for neighbors")
	query := fs.Int("query", 0, "query index neighbors (and mine -algorithm knn) search around")
	algorithmName := fs.String("algorithm", "k-medoids", "mine algorithm: k-medoids|dbscan|complete-link|outliers|knn|apriori")
	eps := fs.Float64("eps", 0.35, "DBSCAN neighborhood radius")
	minPts := fs.Int("minpts", 3, "DBSCAN core-point threshold")
	pFrac := fs.Float64("p", 0.95, "outliers: fraction p of DB(p, D)")
	dDist := fs.Float64("d", 0.8, "outliers: distance D of DB(p, D)")
	minSupport := fs.Int("min-support", 3, "apriori: absolute support threshold")
	maxLen := fs.Int("max-len", 3, "apriori: largest itemset size mined")
	par := fs.Int("par", 0, "distance-engine parallelism (0 = all cores)")
	remote := fs.String("remote", "", "dpeserver base URL; empty runs the provider in-process")
	session := fs.String("session", "", "export: id of the session to bundle")
	out := fs.String("o", "", "export: bundle file to write (default <session>.dpe)")
	if err := fs.Parse(args[1:]); err != nil {
		return nil, err
	}
	// import takes its bundle file as the one positional argument; every
	// other command is flags-only.
	if c.cmd == "import" {
		if fs.NArg() != 1 {
			return nil, fmt.Errorf("usage: dpectl import -remote URL bundle.dpe")
		}
		c.in = fs.Arg(0)
	} else if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if c.cmd == "export" || c.cmd == "import" {
		// Bundles move server-side state, so both commands talk to a
		// server; nothing else on the command line applies to them.
		if *remote == "" {
			return nil, fmt.Errorf("dpectl %s requires -remote", c.cmd)
		}
		if c.cmd == "export" {
			if *session == "" {
				return nil, fmt.Errorf("dpectl export requires -session")
			}
			c.session = *session
			c.out = *out
			if c.out == "" {
				c.out = c.session + ".dpe"
			}
		}
		c.remote = *remote
		return c, nil
	}
	m, err := dpe.ParseMeasure(*measureName)
	if err != nil {
		return nil, err
	}
	alg, err := dpe.ParseMiningAlgorithm(*algorithmName)
	if err != nil {
		return nil, err
	}
	if *queries < 2 {
		return nil, fmt.Errorf("-queries must be at least 2, got %d", *queries)
	}
	if *rowsN <= 0 {
		return nil, fmt.Errorf("-rows must be positive, got %d", *rowsN)
	}
	if *k <= 0 {
		return nil, fmt.Errorf("-k must be positive, got %d", *k)
	}
	if *query < 0 || *query >= *queries {
		return nil, fmt.Errorf("-query must index the log: got %d with %d queries", *query, *queries)
	}
	if *master == "" {
		return nil, fmt.Errorf("-master must not be empty")
	}
	if *par <= 0 {
		*par = runtime.NumCPU()
	}
	c.seed, c.master, c.queries, c.rows = *seed, *master, *queries, *rowsN
	c.measure, c.k, c.query, c.par, c.remote = m, *k, *query, *par, *remote
	c.algorithm, c.eps, c.minPts, c.p, c.d = alg, *eps, *minPts, *pFrac, *dDist
	c.minSupport, c.maxLen = *minSupport, *maxLen
	if c.cmd == "mine" {
		if err := c.mineSpec().Validate(c.queries); err != nil {
			return nil, err
		}
	}
	return c, nil
}

const usageLine = "usage: dpectl <gen|encrypt|distance|mine|neighbors|verify|export|import> [flags]"

func main() {
	c, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpectl:", err)
		os.Exit(2)
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "dpectl:", err)
		os.Exit(1)
	}
}

func setup(seed, master string, queries, rows int) (*dpe.Workload, *dpe.Owner, error) {
	w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{
		Seed: seed, Queries: queries, Rows: rows,
		IncludeAggregates: true, IncludeJoins: true,
	})
	if err != nil {
		return nil, nil, err
	}
	owner, err := dpe.NewOwner([]byte(master), w.Schema, dpe.Config{PaillierBits: 512})
	if err != nil {
		return nil, nil, err
	}
	if err := owner.DeclareJoins(w.Queries); err != nil {
		return nil, nil, err
	}
	return w, owner, nil
}

// providers builds the owner-side (plaintext artifacts) and
// provider-side (encrypted artifacts) sessions for a measure, sharing
// exactly the inputs Table I prescribes. With remote set, the encrypted
// side is a session on that dpeserver — the artifacts go over the wire
// — while the plaintext check stays with the owner in-process.
func providers(ctx context.Context, w *dpe.Workload, owner *dpe.Owner, m dpe.Measure, par int, remote string) (plain, enc dpe.ProviderAPI, err error) {
	plainOpts := []dpe.ProviderOption{dpe.WithParallelism(par)}
	switch m {
	case dpe.MeasureResult:
		plainOpts = append(plainOpts, dpe.WithCatalog(w.Catalog, nil))
	case dpe.MeasureAccessArea:
		plainOpts = append(plainOpts, dpe.WithDomains(w.Domains))
	}
	encOpts, remoteOpts, err := service.EncryptedArtifactOptions(owner, w, m)
	if err != nil {
		return nil, nil, err
	}
	plain, err = dpe.NewProvider(m, plainOpts...)
	if err != nil {
		return nil, nil, err
	}
	if remote != "" {
		enc, err = service.NewClient(remote).NewSession(ctx, m, remoteOpts...)
	} else {
		enc, err = dpe.NewProvider(m, append([]dpe.ProviderOption{dpe.WithParallelism(par)}, encOpts...)...)
	}
	if err != nil {
		return nil, nil, err
	}
	return plain, enc, nil
}

func run(c *cliConfig) error {
	ctx := context.Background()
	// export/import move an opaque bundle between a server and a file;
	// they need no workload or keys.
	switch c.cmd {
	case "export":
		f, err := os.Create(c.out)
		if err != nil {
			return err
		}
		if err := service.NewClient(c.remote).ExportSession(ctx, c.session, f); err != nil {
			f.Close()
			os.Remove(c.out)
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("exported session %s to %s\n", c.session, c.out)
		return nil
	case "import":
		f, err := os.Open(c.in)
		if err != nil {
			return err
		}
		defer f.Close()
		res, err := service.NewClient(c.remote).ImportSession(ctx, f)
		if err != nil {
			return err
		}
		fmt.Printf("imported session %s: %d logs, %d snapshots, %d mine states (%d skipped)\n",
			res.Session, res.Logs, res.Snapshots, res.MineStates, res.Skipped)
		return nil
	}

	m, k, par, remote := c.measure, c.k, c.par, c.remote
	w, owner, err := setup(c.seed, c.master, c.queries, c.rows)
	if err != nil {
		return err
	}

	switch c.cmd {
	case "gen":
		for i, q := range w.Queries {
			fmt.Printf("%3d  %s\n", i, q)
		}
		return nil

	case "encrypt":
		encLog, err := owner.EncryptLog(w.Queries, m)
		if err != nil {
			return err
		}
		for i, q := range encLog {
			fmt.Printf("%3d  %s\n", i, q)
		}
		return nil

	case "distance":
		encLog, err := owner.EncryptLog(w.Queries, m)
		if err != nil {
			return err
		}
		_, provider, err := providers(ctx, w, owner, m, par, remote)
		if err != nil {
			return err
		}
		enc, err := provider.DistanceMatrix(ctx, encLog)
		if err != nil {
			return err
		}
		fmt.Printf("pairwise %s distances over the ENCRYPTED log (%d queries):\n", m, len(enc))
		for i := range enc {
			for j := range enc[i] {
				fmt.Printf("%5.2f ", enc[i][j])
			}
			fmt.Println()
		}
		return nil

	case "mine":
		encLog, err := owner.EncryptLog(w.Queries, m)
		if err != nil {
			return err
		}
		_, provider, err := providers(ctx, w, owner, m, par, remote)
		if err != nil {
			return err
		}
		spec := c.mineSpec()
		res, err := provider.Mine(ctx, encLog, spec)
		if err != nil {
			return err
		}
		return printMine(os.Stdout, w.Queries, spec, res)

	case "neighbors":
		encLog, err := owner.EncryptLog(w.Queries, m)
		if err != nil {
			return err
		}
		_, provider, err := providers(ctx, w, owner, m, par, remote)
		if err != nil {
			return err
		}
		res, err := provider.Neighbors(ctx, encLog, c.query, k)
		if err != nil {
			return err
		}
		fmt.Printf("top-%d neighbors of query %d over the ENCRYPTED log (measure %s):\n", k, c.query, m)
		fmt.Printf("   q    %s\n", w.Queries[c.query])
		for _, nb := range res.Neighbors {
			fmt.Printf("%4d  d=%.3f  %s\n", nb.Index, nb.Distance, w.Queries[nb.Index])
		}
		fmt.Printf("ranked exactly over all %d other queries\n", res.Candidates)
		return nil

	case "verify":
		encLog, err := owner.EncryptLog(w.Queries, m)
		if err != nil {
			return err
		}
		plainP, encP, err := providers(ctx, w, owner, m, par, remote)
		if err != nil {
			return err
		}
		plain, err := plainP.DistanceMatrix(ctx, w.Queries)
		if err != nil {
			return err
		}
		enc, err := encP.DistanceMatrix(ctx, encLog)
		if err != nil {
			return err
		}
		rep, err := dpe.VerifyPreservation(plain, enc, 0)
		if err != nil {
			return err
		}
		fmt.Printf("measure %s: %d pairs, max |Δd| = %.2e, distance-preserving: %v\n",
			m, rep.Pairs, rep.MaxAbsError, rep.Preserved)
		if !rep.Preserved {
			return fmt.Errorf("Definition 1 violated")
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q: %s", c.cmd, usageLine)
	}
}

// printMine renders one MineResult against the plaintext log the owner
// keeps: clusters, per-query labels, outlier flags, a neighbor list,
// or frequent itemsets, depending on the algorithm mined.
func printMine(out io.Writer, queries []string, spec dpe.MineSpec, res *dpe.MineResult) error {
	switch spec.Algorithm {
	case dpe.MineKMedoids:
		fmt.Fprintf(out, "k-medoids over the ENCRYPTED log (k=%d, cost %.3f):\n", spec.K, res.Clusters.Cost)
		for c := range res.Clusters.Medoids {
			fmt.Fprintf(out, "cluster %d (medoid query %d):\n", c, res.Clusters.Medoids[c])
			for i, a := range res.Clusters.Assign {
				if a == c {
					fmt.Fprintf(out, "   %3d  %s\n", i, queries[i])
				}
			}
		}
	case dpe.MineDBSCAN, dpe.MineCompleteLink:
		if spec.Algorithm == dpe.MineDBSCAN {
			fmt.Fprintf(out, "dbscan over the ENCRYPTED log (eps=%g, minPts=%d):\n", spec.Eps, spec.MinPts)
		} else {
			fmt.Fprintf(out, "complete-link over the ENCRYPTED log (k=%d):\n", spec.K)
		}
		printLabels(out, queries, res.Labels)
	case dpe.MineOutliers:
		fmt.Fprintf(out, "DB(p=%g, D=%g) outliers over the ENCRYPTED log:\n", spec.P, spec.D)
		n := 0
		for i, o := range res.Outliers {
			if o {
				fmt.Fprintf(out, "   %3d  %s\n", i, queries[i])
				n++
			}
		}
		fmt.Fprintf(out, "%d of %d queries flagged\n", n, len(queries))
	case dpe.MineKNN:
		fmt.Fprintf(out, "top-%d neighbors of query %d over the ENCRYPTED log:\n", spec.K, spec.Query)
		fmt.Fprintf(out, "   q    %s\n", queries[spec.Query])
		for _, nb := range res.Neighbors {
			fmt.Fprintf(out, "%4d  %s\n", nb, queries[nb])
		}
	case dpe.MineApriori:
		fmt.Fprintf(out, "apriori over the ENCRYPTED log (min support %d, max len %d): %d frequent itemsets\n",
			spec.MinSupport, spec.MaxLen, len(res.Itemsets))
		for _, s := range res.Itemsets {
			fmt.Fprintf(out, "%4d  %s\n", s.Support, strings.Join(s.Items, " "))
		}
	default:
		return fmt.Errorf("no renderer for algorithm %s", spec.Algorithm)
	}
	return nil
}

// printLabels groups a labeling by cluster id, noise last.
func printLabels(out io.Writer, queries []string, labels []int) {
	max := -1
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	for c := 0; c <= max; c++ {
		fmt.Fprintf(out, "cluster %d:\n", c)
		for i, l := range labels {
			if l == c {
				fmt.Fprintf(out, "   %3d  %s\n", i, queries[i])
			}
		}
	}
	noise := false
	for i, l := range labels {
		if l == dpe.Noise {
			if !noise {
				fmt.Fprintln(out, "noise:")
				noise = true
			}
			fmt.Fprintf(out, "   %3d  %s\n", i, queries[i])
		}
	}
}
