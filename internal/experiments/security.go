package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accessarea"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/distance"
	"repro/internal/encdb"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// --- E4: the Section IV-C refinement ---

// AttrAssignment records the class an attribute's data gets under one
// scheme.
type AttrAssignment struct {
	Attribute string
	// AggregateOnly marks attributes occurring only inside SELECT
	// aggregates (never in predicates).
	AggregateOnly bool
	CryptDB       core.Class // class under CryptDB-as-is (result scheme)
	Refined       core.Class // class under the access-area scheme
}

// AccessAreaSecurityReport is the outcome of E4.
type AccessAreaSecurityReport struct {
	Assignments []AttrAssignment
	// Preserved confirms d_AE is still distance-preserving under the
	// refined scheme.
	Preserved *core.PreservationReport
	// Improved counts attributes whose class strictly gained security.
	Improved int
}

// AccessAreaSecurity runs experiment E4: identify attributes that occur
// only inside SELECT aggregates, show the refined scheme assigns them
// PROB where CryptDB-as-is uses HOM (a strict gain in Fig. 1), and
// verify the access-area distance is still preserved.
func AccessAreaSecurity(p Params) (*AccessAreaSecurityReport, error) {
	p = p.withDefaults()
	e, err := newEnv(p, workload.Config{IncludeAggregates: true, IncludeJoins: true})
	if err != nil {
		return nil, err
	}

	// Classify attributes: in predicates vs aggregate-only.
	inPredicates := make(map[string]bool)
	inAggregates := make(map[string]bool)
	for _, stmt := range e.w.Stmts {
		for a := range accessarea.AccessedAttributes(stmt) {
			inPredicates[a] = true
		}
		for _, item := range stmt.Select {
			f, ok := item.Expr.(*sqlparse.FuncCall)
			if !ok || f.Star {
				continue
			}
			if c, ok := f.Arg.(*sqlparse.ColumnRef); ok && f.Name != "COUNT" {
				inAggregates[c.Name] = true
			}
		}
	}

	rep := &AccessAreaSecurityReport{}
	for _, attr := range sortedKeys(inAggregates) {
		aggOnly := !inPredicates[attr]
		a := AttrAssignment{Attribute: attr, AggregateOnly: aggOnly}
		if aggOnly {
			// CryptDB keeps a HOM onion to answer SUM/AVG; the refined
			// scheme drops to PROB because the SELECT clause has no
			// influence on access areas (Section IV-C).
			a.CryptDB = core.HOM
			a.Refined = core.PROB
			if core.MoreSecure(a.Refined, a.CryptDB) {
				rep.Improved++
			}
		} else {
			// Predicate attributes need order for the area algebra under
			// both schemes.
			a.CryptDB = core.OPE
			a.Refined = core.OPE
		}
		rep.Assignments = append(rep.Assignments, a)
	}

	// And the refinement must not cost correctness: d_AE preserved.
	plainArts, encArts, err := e.artifacts("access-area")
	if err != nil {
		return nil, err
	}
	pres, err := e.verify("access-area", encdb.ModeAccessArea, plainArts, encArts)
	if err != nil {
		return nil, err
	}
	rep.Preserved = pres
	return rep, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// insertion sort — tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RenderAccessAreaSecurity prints the E4 outcome.
func RenderAccessAreaSecurity(r *AccessAreaSecurityReport) string {
	var sb strings.Builder
	sb.WriteString("E4 — ACCESS-AREA SCHEME vs CRYPTDB-AS-IS (Section IV-C)\n\n")
	fmt.Fprintf(&sb, "%-12s | %-14s | %-16s | %-16s | %s\n", "Attribute", "AggregateOnly", "CryptDB class", "Refined class", "SecurityGain")
	sb.WriteString(strings.Repeat("-", 85) + "\n")
	for _, a := range r.Assignments {
		gain := "—"
		if core.MoreSecure(a.Refined, a.CryptDB) {
			gain = fmt.Sprintf("level %d -> %d", core.SecurityLevel(a.CryptDB), core.SecurityLevel(a.Refined))
		}
		fmt.Fprintf(&sb, "%-12s | %-14v | %-16s | %-16s | %s\n", a.Attribute, a.AggregateOnly, a.CryptDB, a.Refined, gain)
	}
	fmt.Fprintf(&sb, "\nAttributes strictly gaining security: %d\n", r.Improved)
	fmt.Fprintf(&sb, "d_AE still preserved under the refined scheme: %v (max err %.2e over %d pairs)\n",
		r.Preserved.Preserved, r.Preserved.MaxAbsError, r.Preserved.Pairs)
	return sb.String()
}

// --- E5: shared information ---

// SharedInfoRow is one measure's shared-information requirements plus a
// live demonstration that the measure fails cleanly without them.
type SharedInfoRow struct {
	Measure      string
	Shared       core.SharedInformation
	FailsWithout string // which missing input was demonstrated
	FailureErr   string // the error observed
}

// SharedInfo runs experiment E5: the Shared Information columns of
// Table I, demonstrated by withholding the input and observing failure.
func SharedInfo(p Params) ([]SharedInfoRow, error) {
	p = p.withDefaults()
	p.Queries = 10
	e, err := newEnv(p, workload.Config{IncludeAggregates: true})
	if err != nil {
		return nil, err
	}
	measures := core.SQLMeasures()
	rows := []SharedInfoRow{
		{Measure: measures[0].Name, Shared: measures[0].Shared},
		{Measure: measures[1].Name, Shared: measures[1].Shared},
	}

	// Result distance without DB content: an empty catalog.
	row := SharedInfoRow{Measure: measures[2].Name, Shared: measures[2].Shared, FailsWithout: "DB-Content"}
	if _, err := prepare("result", distance.Artifacts{Catalog: db.NewCatalog()}, e.w.Queries[:2]); err != nil {
		row.FailureErr = err.Error()
	}
	rows = append(rows, row)

	// Access-area distance without domains.
	row = SharedInfoRow{Measure: measures[3].Name, Shared: measures[3].Shared, FailsWithout: "Domains"}
	if _, err := prepare("access-area", distance.Artifacts{}, e.w.Queries[:2]); err != nil {
		row.FailureErr = err.Error()
	}
	rows = append(rows, row)
	return rows, nil
}

// RenderSharedInfo prints the E5 outcome.
func RenderSharedInfo(rows []SharedInfoRow) string {
	var sb strings.Builder
	sb.WriteString("E5 — SHARED INFORMATION PER MEASURE (Table I columns)\n\n")
	fmt.Fprintf(&sb, "%-36s | %-40s | %s\n", "Measure", "Shared Information", "Fails without")
	sb.WriteString(strings.Repeat("-", 110) + "\n")
	for _, r := range rows {
		fail := "—"
		if r.FailsWithout != "" {
			fail = fmt.Sprintf("%s (%s)", r.FailsWithout, truncate(r.FailureErr, 40))
		}
		fmt.Fprintf(&sb, "%-36s | %-40s | %s\n", r.Measure, r.Shared, fail)
	}
	return sb.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
