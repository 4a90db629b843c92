// Package workload generates the synthetic substrate the paper's case
// study needs but does not ship: a SkyServer-like astronomical schema
// with database content, attribute domains, and a templated SQL query
// log with Zipf-skewed constants (modelled on the SkyServer logs of
// Nguyen et al. [16], the source of the access-area measure).
//
// Everything is derived deterministically from a seed, so experiments
// are reproducible bit-for-bit.
//
// Schema:
//
//	photoobj(objid INT, ra FLOAT, dec FLOAT, class STRING,
//	         mag_r FLOAT, nvote INT, flags INT, petro INT)
//
// petro deliberately occurs only inside SELECT aggregates, never in a
// predicate — the attribute class the Section IV-C refinement (E4) is
// about.
//
//	specobj(specid INT, objid INT, redshift FLOAT, class STRING)
//
// The query templates cover the operation mix the four distance
// measures exercise: point lookups, range scans, IN lists, LIKE
// filters, aggregations with GROUP BY / HAVING, and joins.
package workload

import (
	"fmt"
	"math"

	"repro/internal/accessarea"
	"repro/internal/crypto/prf"
	"repro/internal/db"
	"repro/internal/encdb"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// Config controls generation.
type Config struct {
	// Seed makes everything reproducible. Two equal configs generate
	// identical workloads.
	Seed string
	// Rows per table; 0 means 200.
	Rows int
	// Queries in the log; 0 means 60.
	Queries int
	// ZipfS is the skew of constant selection; 0 means 1.2.
	ZipfS float64
	// IncludeLike adds LIKE templates (not executable in result mode).
	IncludeLike bool
	// IncludeJoins adds join templates.
	IncludeJoins bool
	// IncludeAggregates adds aggregate / GROUP BY templates.
	IncludeAggregates bool
}

func (c Config) withDefaults() Config {
	if c.Seed == "" {
		c.Seed = "kit-dpe"
	}
	if c.Rows == 0 {
		c.Rows = 200
	}
	if c.Queries == 0 {
		c.Queries = 60
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	return c
}

// Workload bundles everything an experiment needs.
type Workload struct {
	Catalog *db.Catalog
	Schema  *encdb.Schema
	// Domains holds each predicate attribute's domain ("Domains" shared
	// information of Table I).
	Domains map[string]accessarea.Domain
	// Queries is the plaintext query log.
	Queries []string
	// Stmts are the parsed queries, index-aligned with Queries.
	Stmts []*sqlparse.SelectStmt
}

// Domain bounds used by both the data generator and the access-area
// algebra.
const (
	objidMax    = 100000
	raMax       = 360.0
	decMin      = -90.0
	decMax      = 90.0
	magMin      = 10.0
	magMax      = 25.0
	nvoteMax    = 100
	flagsMax    = 8
	petroMax    = 50
	redshiftMax = 7.0
)

// classes are the object classes of the class attribute.
var classes = []string{"STAR", "GALAXY", "QSO", "UNKNOWN"}

// Generate builds a deterministic workload.
func Generate(cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	w := &Workload{Catalog: db.NewCatalog()}

	if err := w.generateData(cfg); err != nil {
		return nil, err
	}
	schema, err := encdb.SchemaFromCatalog(w.Catalog)
	if err != nil {
		return nil, err
	}
	w.Schema = schema
	w.Domains = map[string]accessarea.Domain{
		"objid":    {Min: value.Int(0), Max: value.Int(objidMax)},
		"ra":       {Min: value.Float(0), Max: value.Float(raMax)},
		"dec":      {Min: value.Float(decMin), Max: value.Float(decMax)},
		"mag_r":    {Min: value.Float(magMin), Max: value.Float(magMax)},
		"nvote":    {Min: value.Int(0), Max: value.Int(nvoteMax)},
		"flags":    {Min: value.Int(0), Max: value.Int(flagsMax)},
		"redshift": {Min: value.Float(0), Max: value.Float(redshiftMax)},
		"specid":   {Min: value.Int(0), Max: value.Int(objidMax)},
		"class":    {Min: value.Str(""), Max: value.Str("~")},
	}
	if err := w.generateQueries(cfg); err != nil {
		return nil, err
	}
	return w, nil
}

// MustGenerate panics on error; generation of a valid Config never fails.
func MustGenerate(cfg Config) *Workload {
	w, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func (w *Workload) generateData(cfg Config) error {
	d := prf.NewDRBG([]byte(cfg.Seed), []byte("data"))
	photo, err := w.Catalog.Create("photoobj", []db.Column{
		{Name: "objid", Type: db.TypeInt},
		{Name: "ra", Type: db.TypeFloat},
		{Name: "dec", Type: db.TypeFloat},
		{Name: "class", Type: db.TypeString},
		{Name: "mag_r", Type: db.TypeFloat},
		{Name: "nvote", Type: db.TypeInt},
		{Name: "flags", Type: db.TypeInt},
		{Name: "petro", Type: db.TypeInt},
	})
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Rows; i++ {
		row := db.Row{
			value.Int(int64(i * (objidMax / cfg.Rows))),
			value.Float(round3(d.Float64() * raMax)),
			value.Float(round3(decMin + d.Float64()*(decMax-decMin))),
			value.Str(classes[d.Uint64n(uint64(len(classes)))]),
			value.Float(round3(magMin + d.Float64()*(magMax-magMin))),
			value.Int(int64(d.Uint64n(nvoteMax + 1))),
			value.Int(int64(d.Uint64n(flagsMax + 1))),
			value.Int(int64(d.Uint64n(petroMax + 1))),
		}
		if err := photo.Insert(row); err != nil {
			return err
		}
	}
	spec, err := w.Catalog.Create("specobj", []db.Column{
		{Name: "specid", Type: db.TypeInt},
		{Name: "objid", Type: db.TypeInt},
		{Name: "redshift", Type: db.TypeFloat},
		{Name: "class", Type: db.TypeString},
	})
	if err != nil {
		return err
	}
	// Roughly half the photo objects have spectra.
	for i := 0; i < cfg.Rows/2; i++ {
		row := db.Row{
			value.Int(int64(i)),
			value.Int(int64(int(d.Uint64n(uint64(cfg.Rows))) * (objidMax / cfg.Rows))),
			value.Float(round3(d.Float64() * redshiftMax)),
			value.Str(classes[d.Uint64n(uint64(len(classes)))]),
		}
		if err := spec.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }

// zipfIndex draws an index in [0, n) with Zipf skew s.
func zipfIndex(d *prf.DRBG, n int, s float64) int {
	var norm float64
	for i := 1; i <= n; i++ {
		norm += 1 / math.Pow(float64(i), s)
	}
	u := d.Float64() * norm
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += 1 / math.Pow(float64(i), s)
		if u < acc {
			return i - 1
		}
	}
	return n - 1
}

// generateQueries instantiates templates with skewed constants. The
// constant pools are small and Zipf-ranked so the logs contain repeated
// values — the regime in which frequency attacks (and interesting
// clusterings) exist.
func (w *Workload) generateQueries(cfg Config) error {
	d := prf.NewDRBG([]byte(cfg.Seed), []byte("queries"))

	// Skewed constant pools.
	raCuts := []float64{30, 60, 90, 120, 180, 240, 300}
	magCuts := []float64{14, 16, 18, 20, 22}
	redshiftCuts := []float64{0.1, 0.5, 1, 2, 3}
	nvoteCuts := []int64{10, 25, 50, 75}
	objids := []int64{0, 500, 1500, 3000, 5000, 9500, 25000, 50000}

	pickF := func(pool []float64) float64 { return pool[zipfIndex(d, len(pool), cfg.ZipfS)] }
	pickI := func(pool []int64) int64 { return pool[zipfIndex(d, len(pool), cfg.ZipfS)] }
	pickClass := func() string { return classes[zipfIndex(d, len(classes), cfg.ZipfS)] }

	type template func() string
	templates := []template{
		// Point lookup.
		func() string {
			return fmt.Sprintf("SELECT objid, ra, dec FROM photoobj WHERE objid = %d", pickI(objids))
		},
		// Range scan on ra.
		func() string {
			lo := pickF(raCuts)
			return fmt.Sprintf("SELECT objid FROM photoobj WHERE ra BETWEEN %v AND %v", lo, lo+30)
		},
		// Conjunctive range.
		func() string {
			return fmt.Sprintf("SELECT objid, mag_r FROM photoobj WHERE mag_r < %v AND dec > %v", pickF(magCuts), -45.0)
		},
		// Equality on class + range.
		func() string {
			return fmt.Sprintf("SELECT objid FROM photoobj WHERE class = '%s' AND nvote >= %d", pickClass(), pickI(nvoteCuts))
		},
		// IN list.
		func() string {
			a, b := pickClass(), pickClass()
			return fmt.Sprintf("SELECT objid, class FROM photoobj WHERE class IN ('%s', '%s')", a, b)
		},
		// Disjunctive ranges (interesting access areas).
		func() string {
			return fmt.Sprintf("SELECT objid FROM photoobj WHERE ra < %v OR ra > %v", pickF(raCuts), 300.0)
		},
	}
	if cfg.IncludeAggregates {
		templates = append(templates,
			func() string {
				return fmt.Sprintf("SELECT class, COUNT(*) FROM photoobj WHERE mag_r < %v GROUP BY class", pickF(magCuts))
			},
			func() string {
				return fmt.Sprintf("SELECT SUM(nvote), COUNT(*) FROM photoobj WHERE ra BETWEEN %v AND %v", pickF(raCuts), 330.0)
			},
			func() string {
				return fmt.Sprintf("SELECT class, MIN(mag_r), MAX(mag_r) FROM photoobj WHERE nvote > %d GROUP BY class", pickI(nvoteCuts))
			},
			func() string {
				return fmt.Sprintf("SELECT AVG(nvote) FROM photoobj WHERE flags = %d", int64(d.Uint64n(flagsMax+1)))
			},
			// petro occurs only inside aggregates (never in predicates):
			// the attribute class that motivates the E4 refinement.
			func() string {
				return fmt.Sprintf("SELECT SUM(petro), AVG(petro) FROM photoobj WHERE class = '%s'", pickClass())
			},
		)
	}
	if cfg.IncludeJoins {
		templates = append(templates,
			func() string {
				return fmt.Sprintf("SELECT p.objid, s.redshift FROM photoobj AS p JOIN specobj AS s ON p.objid = s.objid WHERE s.redshift > %v", pickF(redshiftCuts))
			},
			func() string {
				return fmt.Sprintf("SELECT p.objid FROM photoobj AS p JOIN specobj AS s ON p.objid = s.objid WHERE p.class = '%s'", pickClass())
			},
		)
	}
	if cfg.IncludeLike {
		templates = append(templates,
			func() string {
				return fmt.Sprintf("SELECT objid FROM photoobj WHERE class LIKE '%s%%'", pickClass()[:2])
			},
		)
	}

	for i := 0; i < cfg.Queries; i++ {
		q := templates[int(d.Uint64n(uint64(len(templates))))]()
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			return fmt.Errorf("workload: generated invalid query %q: %w", q, err)
		}
		w.Queries = append(w.Queries, stmt.SQL())
		w.Stmts = append(w.Stmts, stmt)
	}
	return nil
}
