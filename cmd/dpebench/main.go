// Command dpebench regenerates the paper's evaluation artifacts and
// runs the repository's reproducible benchmark harness (internal/bench).
//
// Paper experiments (text output; docs/ARCHITECTURE.md, "Paper
// experiments"):
//
//	dpebench -exp table1      # E1: Table I via empirical class selection
//	dpebench -exp fig1        # E2: Fig. 1 as measured attack advantages
//	dpebench -exp mining      # E3: mining-result equality
//	dpebench -exp accessarea  # E4: Section IV-C refinement
//	dpebench -exp shared      # E5: shared-information columns
//	dpebench -exp rules       # E6: association rules over encrypted logs
//
// Harness experiments (internal/bench; text render, or a versioned
// machine-readable report with -json):
//
//	dpebench -exp engine      # matrix build, sequential vs worker pool
//	dpebench -exp append      # incremental append vs from-scratch rebuild
//	dpebench -exp service     # cold/warm/append latency vs dpeserver
//	dpebench -exp contention  # P goroutines vs one sharded registry
//	dpebench -exp recovery    # kill-and-restart: journal replay vs cold start
//	dpebench -exp obs         # instrumented server: /metrics vs ground truth
//	dpebench -exp hotpath     # bitset vs map kernels, CRT vs textbook Paillier
//	dpebench -exp incmine     # warm incremental mining vs a cold re-mine
//
//	dpebench -exp all -json   # run the whole harness, write BENCH_PR7.json
//	dpebench -exp all -json -short -baseline bench_baseline.json
//	                          # CI shape: smoke sizes, fail if any tracked
//	                          # metric regresses >30% vs the baseline
//	dpebench -compare BENCH_PR7.json -baseline bench_baseline.json
//	                          # no experiments: render the per-metric %
//	                          # delta between two existing reports
//
// In text mode, -exp all runs the paper experiments (E1–E6); the
// harness experiments run when named explicitly or whenever -json is
// set. Sizing flags: -queries, -append, -rows, -seed, -paillier, -par,
// -measure, -warm; -short starts from the CI smoke sizes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	dpe "repro"
	"repro/internal/bench"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpebench:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	exp        string
	json       bool
	short      bool
	out        string
	baseline   string
	compare    string
	maxRegress float64

	// Workload sizing; zero means "the mode's default".
	seed     string
	queries  int
	appendK  int
	rows     int
	paillier int
	par      int
	warm     int
	measure  string
}

// parseOptions parses the flags without exiting the process, so tests
// can drive it.
func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("dpebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.exp, "exp", "all", "experiment: table1|fig1|mining|accessarea|shared|rules|engine|append|service|contention|recovery|obs|hotpath|incmine|all")
	fs.BoolVar(&o.json, "json", false, "run the bench harness and write a machine-readable report")
	fs.BoolVar(&o.short, "short", false, "CI smoke sizes (small workloads, fewer iterations)")
	fs.StringVar(&o.out, "out", "BENCH_PR7.json", "report path for -json")
	fs.StringVar(&o.baseline, "baseline", "", "committed baseline report; with -json, fail on tracked-metric regressions")
	fs.StringVar(&o.compare, "compare", "", "render the per-metric delta of this report vs -baseline; runs no experiments")
	fs.Float64Var(&o.maxRegress, "max-regress", 0.30, "allowed tracked-metric regression vs the baseline (0.30 = +30%)")
	fs.StringVar(&o.seed, "seed", "", "workload seed")
	fs.IntVar(&o.queries, "queries", 0, "queries in the generated log (harness: base log size n)")
	fs.IntVar(&o.appendK, "append", 0, "appended queries k (harness append/service experiments)")
	fs.IntVar(&o.rows, "rows", 0, "rows per generated table")
	fs.IntVar(&o.paillier, "paillier", 0, "Paillier modulus bits")
	fs.IntVar(&o.par, "par", 0, "worker-pool parallelism (0 = all cores)")
	fs.IntVar(&o.warm, "warm", 0, "warm repetitions in the service experiment")
	fs.StringVar(&o.measure, "measure", "", "restrict the harness to one measure: token|structure|result|access-area")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.maxRegress < 0 {
		return nil, fmt.Errorf("-max-regress must be >= 0, got %v", o.maxRegress)
	}
	if o.compare != "" {
		if o.baseline == "" {
			return nil, fmt.Errorf("-compare needs -baseline to name the report to diff against")
		}
		return o, nil
	}
	_, harness, err := o.selection()
	if err != nil {
		return nil, err
	}
	if o.baseline != "" && len(harness) == 0 {
		return nil, fmt.Errorf("-baseline gates the harness experiments (engine|append|service|contention|recovery|obs|hotpath|incmine|all), but -exp %s runs none", o.exp)
	}
	if _, err := o.benchConfig(); err != nil {
		return nil, err
	}
	return o, nil
}

var paperExps = []string{"table1", "fig1", "mining", "accessarea", "shared", "rules"}

// selection splits -exp into the paper experiments and the harness
// experiments it names.
func (o *options) selection() (paper, harness []string, err error) {
	switch o.exp {
	case "all":
		if o.json {
			return nil, []string{"all"}, nil
		}
		return paperExps, nil, nil
	case "engine", "append", "service", "contention", "recovery", "obs", "hotpath", "incmine":
		return nil, []string{o.exp}, nil
	default:
		for _, p := range paperExps {
			if o.exp == p {
				if o.json {
					return nil, nil, fmt.Errorf("-json applies to the harness experiments (engine|append|service|contention|recovery|obs|hotpath|incmine|all), not %q", o.exp)
				}
				return []string{o.exp}, nil, nil
			}
		}
		return nil, nil, fmt.Errorf("unknown experiment %q (want table1|fig1|mining|accessarea|shared|rules|engine|append|service|contention|recovery|obs|hotpath|incmine|all)", o.exp)
	}
}

// paperParams are the text experiments' sizes, preserving the historic
// defaults.
func (o *options) paperParams() experiments.Params {
	p := experiments.Params{Seed: "seed-42", Queries: 60, Rows: 120, PaillierBits: 512}
	if o.seed != "" {
		p.Seed = o.seed
	}
	if o.queries > 0 {
		p.Queries = o.queries
	}
	if o.rows > 0 {
		p.Rows = o.rows
	}
	if o.paillier > 0 {
		p.PaillierBits = o.paillier
	}
	return p
}

// benchConfig maps the flags onto the harness config: -short starts
// from the smoke shape, explicit flags win either way.
func (o *options) benchConfig() (bench.Config, error) {
	var cfg bench.Config
	if o.short {
		cfg = bench.ShortConfig()
	}
	if o.seed != "" {
		cfg.Seed = o.seed
	}
	if o.queries > 0 {
		cfg.Queries = o.queries
	}
	if o.appendK > 0 {
		cfg.Append = o.appendK
	}
	if o.rows > 0 {
		cfg.Rows = o.rows
	}
	if o.paillier > 0 {
		cfg.PaillierBits = o.paillier
	}
	if o.par > 0 {
		cfg.Parallelism = o.par
	}
	if o.warm > 0 {
		cfg.WarmCalls = o.warm
	}
	if o.measure != "" {
		m, err := dpe.ParseMeasure(o.measure)
		if err != nil {
			return cfg, err
		}
		cfg.Measures = []dpe.Measure{m}
	}
	return cfg, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.compare != "" {
		return runCompare(o, stdout)
	}
	paper, harness, err := o.selection()
	if err != nil {
		return err
	}
	for _, exp := range paper {
		if err := runPaper(exp, o.paperParams(), stdout); err != nil {
			return err
		}
	}
	if len(harness) == 0 {
		return nil
	}
	cfg, err := o.benchConfig()
	if err != nil {
		return err
	}
	report, err := bench.Run(context.Background(), harness, cfg)
	if err != nil {
		return err
	}
	report.GitSHA = gitSHA()
	if o.json {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d metrics)\n", o.out, len(report.Metrics))
	} else {
		fmt.Fprintln(stdout, bench.Render(report))
	}
	// The regression gate runs whenever a baseline is named — with or
	// without -json, so a mistyped invocation cannot silently skip it.
	if o.baseline == "" {
		return nil
	}
	bf, err := os.Open(o.baseline)
	if err != nil {
		return fmt.Errorf("opening baseline: %w", err)
	}
	defer bf.Close()
	base, err := bench.ReadReport(bf)
	if err != nil {
		return err
	}
	regs, err := bench.Compare(report, base, o.maxRegress)
	if err != nil {
		return err
	}
	if len(regs) > 0 {
		for _, reg := range regs {
			fmt.Fprintln(stdout, "REGRESSION:", reg)
		}
		return fmt.Errorf("%d tracked metric(s) regressed beyond +%.0f%% of %s", len(regs), o.maxRegress*100, o.baseline)
	}
	fmt.Fprintf(stdout, "all tracked metrics within +%.0f%% of %s\n", o.maxRegress*100, o.baseline)
	return nil
}

// runCompare is the -compare mode: read two existing reports and print
// the per-metric percentage delta. Purely a reading aid — no
// experiments run, no gate applies.
func runCompare(o *options, w io.Writer) error {
	cur, err := readReportFile(o.compare)
	if err != nil {
		return err
	}
	base, err := readReportFile(o.baseline)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderDelta(cur, base))
	return nil
}

func readReportFile(path string) (*bench.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := bench.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// gitSHA stamps the report with the commit it measured, best effort:
// CI exposes GITHUB_SHA; local runs ask git.
func gitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// runPaper executes one of the paper's evaluation experiments and
// prints its table.
func runPaper(exp string, p experiments.Params, w io.Writer) error {
	switch exp {
	case "table1":
		rows, err := experiments.Table1(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderTable1(rows))
	case "fig1":
		rows, err := experiments.Fig1(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderFig1(rows))
		if !experiments.OrderingHolds(rows) {
			return fmt.Errorf("fig1: measured ordering violates the taxonomy")
		}
		fmt.Fprintln(w, "Measured ordering matches Fig. 1: OK")
		fmt.Fprintln(w)
	case "mining":
		rows, ctrl, err := experiments.MiningEquality(p, experiments.DefaultMiningParams())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderMining(rows, ctrl))
	case "accessarea":
		rep, err := experiments.AccessAreaSecurity(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderAccessAreaSecurity(rep))
	case "rules":
		rep, err := experiments.AssociationRules(p, 0, 0)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderRules(rep))
		if !rep.ShapesEqual {
			return fmt.Errorf("rules: shapes differ between plaintext and ciphertext")
		}
	case "shared":
		rows, err := experiments.SharedInfo(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderSharedInfo(rows))
	default:
		return fmt.Errorf("unknown paper experiment %q", exp)
	}
	return nil
}
