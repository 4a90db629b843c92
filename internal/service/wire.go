// Package service turns the in-process provider session (dpe.Provider)
// into a networked, multi-tenant provider service — the paper's
// deployment model made literal. A data owner encrypts the Table I
// shared artifacts (query log, database contents, attribute domains),
// ships them over the wire to an untrusted dpeserver, and mines on
// ciphertext remotely.
//
// The package has three layers:
//
//   - wire codecs (this file): JSON encodings for the shared artifacts —
//     values, catalogs, domains, the aggregate-evaluation public key,
//     mining specs/results, and a streamed distance-matrix format. The
//     codecs are exact: a value round-trips bit-identically, so distance
//     preservation (Definition 1) survives the network hop.
//   - a session registry (registry.go): concurrency-safe multi-tenant
//     state. A session is created once from a measure plus artifacts;
//     logs are uploaded once and addressed by content hash; the metric's
//     expensive per-log Prepared state is reused across matrix, row, and
//     mine calls through an LRU cache with byte and entry budgets.
//   - HTTP (handler.go, client.go): a stdlib net/http handler exposing
//     the registry under /v1, and a Client whose Session implements
//     dpe.ProviderAPI, so owner-side code runs against a local Provider
//     or a remote dpeserver interchangeably.
package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"strconv"

	dpe "repro"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/value"
)

// WireValue is the JSON form of one SQL value. Exactly one payload field
// is set, matching Kind; bytes (ciphertexts) travel base64-encoded.
// Integers decode through strconv, not float64, so 64-bit ciphertext
// payloads round-trip exactly.
type WireValue struct {
	Kind  string   `json:"kind"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Str   *string  `json:"str,omitempty"`
	Bytes []byte   `json:"bytes,omitempty"`
}

// EncodeValue converts a value to its wire form.
func EncodeValue(v value.Value) (WireValue, error) {
	switch v.Kind() {
	case value.KindNull:
		return WireValue{Kind: "null"}, nil
	case value.KindInt:
		i := v.AsInt()
		return WireValue{Kind: "int", Int: &i}, nil
	case value.KindFloat:
		f := v.AsFloat()
		return WireValue{Kind: "float", Float: &f}, nil
	case value.KindString:
		s := v.AsString()
		return WireValue{Kind: "str", Str: &s}, nil
	case value.KindBytes:
		return WireValue{Kind: "bytes", Bytes: v.AsBytes()}, nil
	default:
		return WireValue{}, fmt.Errorf("service: unknown value kind %v", v.Kind())
	}
}

// Decode converts the wire form back to a value.
func (w WireValue) Decode() (value.Value, error) {
	switch w.Kind {
	case "null":
		return value.Null(), nil
	case "int":
		if w.Int == nil {
			return value.Value{}, fmt.Errorf("service: int value without payload")
		}
		return value.Int(*w.Int), nil
	case "float":
		if w.Float == nil {
			return value.Value{}, fmt.Errorf("service: float value without payload")
		}
		return value.Float(*w.Float), nil
	case "str":
		if w.Str == nil {
			return value.Value{}, fmt.Errorf("service: str value without payload")
		}
		return value.Str(*w.Str), nil
	case "bytes":
		return value.Bytes(w.Bytes), nil
	default:
		return value.Value{}, fmt.Errorf("service: unknown wire value kind %q", w.Kind)
	}
}

// WireColumn is the JSON form of one table column.
type WireColumn struct {
	Name string `json:"name"`
	Type string `json:"type"` // INT|FLOAT|STRING|BYTES
}

// WireTable is the JSON form of one relation.
type WireTable struct {
	Name    string        `json:"name"`
	Columns []WireColumn  `json:"columns"`
	Rows    [][]WireValue `json:"rows"`
}

// WireCatalog is the JSON form of the DB-Content shared artifact: the
// (encrypted) database the result-distance measure executes over.
type WireCatalog struct {
	Tables []WireTable `json:"tables"`
}

func parseColumnType(s string) (db.ColumnType, error) {
	for _, t := range []db.ColumnType{db.TypeInt, db.TypeFloat, db.TypeString, db.TypeBytes} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("service: unknown column type %q", s)
}

// EncodeCatalog converts a catalog (tables in name order) to wire form.
func EncodeCatalog(c *dpe.Catalog) (*WireCatalog, error) {
	out := &WireCatalog{}
	for _, name := range c.TableNames() {
		t, err := c.Table(name)
		if err != nil {
			return nil, err
		}
		wt := WireTable{Name: name, Columns: make([]WireColumn, len(t.Columns))}
		for i, col := range t.Columns {
			wt.Columns[i] = WireColumn{Name: col.Name, Type: col.Type.String()}
		}
		wt.Rows = make([][]WireValue, len(t.Rows))
		for i, row := range t.Rows {
			wr := make([]WireValue, len(row))
			for j, v := range row {
				wv, err := EncodeValue(v)
				if err != nil {
					return nil, fmt.Errorf("service: table %q row %d: %w", name, i, err)
				}
				wr[j] = wv
			}
			wt.Rows[i] = wr
		}
		out.Tables = append(out.Tables, wt)
	}
	return out, nil
}

// Decode rebuilds the catalog, re-validating every row against its
// table's declared column types.
func (w *WireCatalog) Decode() (*dpe.Catalog, error) {
	cat := db.NewCatalog()
	for _, wt := range w.Tables {
		cols := make([]db.Column, len(wt.Columns))
		for i, wc := range wt.Columns {
			t, err := parseColumnType(wc.Type)
			if err != nil {
				return nil, fmt.Errorf("service: table %q column %q: %w", wt.Name, wc.Name, err)
			}
			cols[i] = db.Column{Name: wc.Name, Type: t}
		}
		table, err := cat.Create(wt.Name, cols)
		if err != nil {
			return nil, err
		}
		for i, wr := range wt.Rows {
			row := make(db.Row, len(wr))
			for j, wv := range wr {
				v, err := wv.Decode()
				if err != nil {
					return nil, fmt.Errorf("service: table %q row %d: %w", wt.Name, i, err)
				}
				row[j] = v
			}
			if err := table.Insert(row); err != nil {
				return nil, fmt.Errorf("service: table %q row %d: %w", wt.Name, i, err)
			}
		}
	}
	return cat, nil
}

// WireDomain is the JSON form of one attribute domain (the Domains
// shared artifact of the access-area measure).
type WireDomain struct {
	Min WireValue `json:"min"`
	Max WireValue `json:"max"`
}

// EncodeDomains converts a domain map to wire form.
func EncodeDomains(domains map[string]dpe.Domain) (map[string]WireDomain, error) {
	out := make(map[string]WireDomain, len(domains))
	for attr, d := range domains {
		min, err := EncodeValue(d.Min)
		if err != nil {
			return nil, fmt.Errorf("service: domain %q: %w", attr, err)
		}
		max, err := EncodeValue(d.Max)
		if err != nil {
			return nil, fmt.Errorf("service: domain %q: %w", attr, err)
		}
		out[attr] = WireDomain{Min: min, Max: max}
	}
	return out, nil
}

// DecodeDomains is the inverse of EncodeDomains.
func DecodeDomains(domains map[string]WireDomain) (map[string]dpe.Domain, error) {
	out := make(map[string]dpe.Domain, len(domains))
	for attr, wd := range domains {
		min, err := wd.Min.Decode()
		if err != nil {
			return nil, fmt.Errorf("service: domain %q: %w", attr, err)
		}
		max, err := wd.Max.Decode()
		if err != nil {
			return nil, fmt.Errorf("service: domain %q: %w", attr, err)
		}
		out[attr] = dpe.Domain{Min: min, Max: max}
	}
	return out, nil
}

// WireAggregatorKey is the JSON form of the owner's aggregate-evaluation
// public key (Paillier modulus). It carries no secret.
type WireAggregatorKey struct {
	N []byte `json:"n"`
}

// EncodeAggregatorKey converts the public key to wire form.
func EncodeAggregatorKey(pk *dpe.AggregatorKey) *WireAggregatorKey {
	return &WireAggregatorKey{N: pk.N.Bytes()}
}

// Decode rebuilds the public key (recomputing n²).
func (w *WireAggregatorKey) Decode() (*dpe.AggregatorKey, error) {
	n := new(big.Int).SetBytes(w.N)
	if n.Sign() <= 0 {
		return nil, fmt.Errorf("service: aggregator key modulus must be positive")
	}
	return &dpe.AggregatorKey{N: n, N2: new(big.Int).Mul(n, n)}, nil
}

// WireMineSpec is the JSON form of a mining request's parameters. The
// algorithm travels as its canonical name ("k-medoids", "dbscan", ...)
// and is required: a pointer so an absent (or misspelled) field is an
// error instead of silently defaulting to k-medoids.
type WireMineSpec struct {
	Algorithm  *dpe.MiningAlgorithm `json:"algorithm"`
	K          int                  `json:"k,omitempty"`
	Eps        float64              `json:"eps,omitempty"`
	MinPts     int                  `json:"min_pts,omitempty"`
	P          float64              `json:"p,omitempty"`
	D          float64              `json:"d,omitempty"`
	Query      int                  `json:"query,omitempty"`
	MinSupport int                  `json:"min_support,omitempty"`
	MaxLen     int                  `json:"max_len,omitempty"`
}

// EncodeMineSpec converts a spec to wire form.
func EncodeMineSpec(s dpe.MineSpec) WireMineSpec {
	return WireMineSpec{Algorithm: &s.Algorithm, K: s.K, Eps: s.Eps,
		MinPts: s.MinPts, P: s.P, D: s.D, Query: s.Query,
		MinSupport: s.MinSupport, MaxLen: s.MaxLen}
}

// Decode converts the wire form back to a spec, rejecting a spec with
// no algorithm.
func (w WireMineSpec) Decode() (dpe.MineSpec, error) {
	if w.Algorithm == nil {
		return dpe.MineSpec{}, fmt.Errorf("service: mine spec is missing the algorithm (want k-medoids|dbscan|complete-link|outliers|knn|apriori)")
	}
	return dpe.MineSpec{Algorithm: *w.Algorithm, K: w.K, Eps: w.Eps,
		MinPts: w.MinPts, P: w.P, D: w.D, Query: w.Query,
		MinSupport: w.MinSupport, MaxLen: w.MaxLen}, nil
}

// WireClusters is the JSON form of a k-medoids result.
type WireClusters struct {
	Medoids    []int   `json:"medoids"`
	Assign     []int   `json:"assign"`
	Cost       float64 `json:"cost"`
	Iterations int     `json:"iterations"`
}

// WireItemset is the JSON form of one frequent itemset.
type WireItemset struct {
	Items   []string `json:"items"`
	Support int      `json:"support"`
}

// WireIncrementalStats is the JSON form of an incremental-mining
// call's work counters and label delta.
type WireIncrementalStats struct {
	Warm          bool  `json:"warm"`
	ColdFallback  bool  `json:"cold_fallback,omitempty"`
	OldN          int   `json:"old_n"`
	PairsComputed int64 `json:"pairs_computed"`
	Examined      int64 `json:"examined"`
	ChangedLabels []int `json:"changed_labels,omitempty"`
}

// WireMineResult is the JSON form of a mining response: the distance
// matrix (absent for apriori runs, which never build it) plus exactly
// one algorithm-specific field. Incremental appears only on append_mine
// responses.
type WireMineResult struct {
	Matrix      [][]float64           `json:"matrix"`
	Clusters    *WireClusters         `json:"clusters,omitempty"`
	Labels      []int                 `json:"labels,omitempty"`
	Outliers    []bool                `json:"outliers,omitempty"`
	Neighbors   []int                 `json:"neighbors,omitempty"`
	Itemsets    []WireItemset         `json:"itemsets,omitempty"`
	Incremental *WireIncrementalStats `json:"incremental,omitempty"`
}

// EncodeMineResult converts a mining result to wire form.
func EncodeMineResult(r *dpe.MineResult) *WireMineResult {
	out := &WireMineResult{
		Matrix:    r.Matrix,
		Labels:    r.Labels,
		Outliers:  r.Outliers,
		Neighbors: r.Neighbors,
	}
	if r.Clusters != nil {
		out.Clusters = &WireClusters{
			Medoids:    r.Clusters.Medoids,
			Assign:     r.Clusters.Assign,
			Cost:       r.Clusters.Cost,
			Iterations: r.Clusters.Iterations,
		}
	}
	for _, fs := range r.Itemsets {
		out.Itemsets = append(out.Itemsets, WireItemset{Items: fs.Items, Support: fs.Support})
	}
	if r.Incremental != nil {
		out.Incremental = &WireIncrementalStats{
			Warm:          r.Incremental.Warm,
			ColdFallback:  r.Incremental.ColdFallback,
			OldN:          r.Incremental.OldN,
			PairsComputed: r.Incremental.PairsComputed,
			Examined:      r.Incremental.Examined,
			ChangedLabels: r.Incremental.ChangedLabels,
		}
	}
	return out
}

// Decode converts the wire form back to a mining result.
func (w *WireMineResult) Decode() *dpe.MineResult {
	out := &dpe.MineResult{
		Matrix:    w.Matrix,
		Labels:    w.Labels,
		Outliers:  w.Outliers,
		Neighbors: w.Neighbors,
	}
	if w.Clusters != nil {
		out.Clusters = &dpe.KMedoidsResult{
			Medoids:    w.Clusters.Medoids,
			Assign:     w.Clusters.Assign,
			Cost:       w.Clusters.Cost,
			Iterations: w.Clusters.Iterations,
		}
	}
	for _, fs := range w.Itemsets {
		out.Itemsets = append(out.Itemsets, dpe.FrequentItemset{Items: fs.Items, Support: fs.Support})
	}
	if w.Incremental != nil {
		out.Incremental = &dpe.IncrementalStats{
			Warm:          w.Incremental.Warm,
			ColdFallback:  w.Incremental.ColdFallback,
			OldN:          w.Incremental.OldN,
			PairsComputed: w.Incremental.PairsComputed,
			Examined:      w.Incremental.Examined,
			ChangedLabels: w.Incremental.ChangedLabels,
		}
	}
	return out
}

// WireCounterExample is the JSON form of one Definition 1 violation.
type WireCounterExample struct {
	I     int     `json:"i"`
	J     int     `json:"j"`
	Plain float64 `json:"plain"`
	Enc   float64 `json:"enc"`
}

// WirePreservationReport is the JSON form of a Definition 1 check.
type WirePreservationReport struct {
	Pairs           int                  `json:"pairs"`
	MaxAbsError     float64              `json:"max_abs_error"`
	Preserved       bool                 `json:"preserved"`
	CounterExamples []WireCounterExample `json:"counter_examples,omitempty"`
	Error           string               `json:"error,omitempty"`
}

// EncodePreservationReport converts a report to wire form.
func EncodePreservationReport(r *dpe.PreservationReport) *WirePreservationReport {
	out := &WirePreservationReport{
		Pairs:       r.Pairs,
		MaxAbsError: r.MaxAbsError,
		Preserved:   r.Preserved,
		Error:       r.Error,
	}
	for _, ce := range r.CounterExamples {
		out.CounterExamples = append(out.CounterExamples,
			WireCounterExample{I: ce.I, J: ce.J, Plain: ce.Plain, Enc: ce.Enc})
	}
	return out
}

// Decode converts the wire form back to a report.
func (w *WirePreservationReport) Decode() *dpe.PreservationReport {
	out := &dpe.PreservationReport{
		Pairs:       w.Pairs,
		MaxAbsError: w.MaxAbsError,
		Preserved:   w.Preserved,
		Error:       w.Error,
	}
	for _, ce := range w.CounterExamples {
		out.CounterExamples = append(out.CounterExamples,
			core.CounterExample{I: ce.I, J: ce.J, Plain: ce.Plain, Enc: ce.Enc})
	}
	return out
}

// The distance matrix travels as a stream of JSON rows in one of two
// layouts, keys always in this order:
//
//	{"n":N,"rows":[[…],…]}                          WriteMatrix, ReadMatrix
//	{"log":"l-…","n":N,"offset":O,"rows":[[…],…]}   WriteAppendedRows, ReadAppendedRows
//
// The writers append each row to one reused buffer and hand it to the
// io.Writer in one Write, formatting every float exactly as
// encoding/json does, so the stream is byte-for-byte what json.Marshal
// produces row by row. The readers scan the layouts straight off a
// bufio.Reader instead of buffering the body; see rowReader.

// WriteMatrix streams a distance matrix as JSON — {"n":N,"rows":[...]} —
// one Write per row, so a large matrix leaves the server as it is
// encoded instead of being buffered whole. NaN and ±Inf entries are an
// error: JSON cannot carry them.
func WriteMatrix(w io.Writer, m dpe.Matrix) error {
	b := make([]byte, 0, rowBufSize(len(m)))
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(len(m)), 10)
	b = append(b, `,"rows":[`...)
	return writeRows(w, b, m)
}

// AppendedRows is the logs:append response: only the k new full-width
// rows of the extended matrix travel over the wire (rows Offset..N-1),
// never the unchanged old block — for a large session log the append
// payload is O(n·k), not O(n²). Log is the combined log's
// content-addressed id, for follow-up calls on the grown log.
type AppendedRows struct {
	Log    string      `json:"log"`
	N      int         `json:"n"`
	Offset int         `json:"offset"`
	Rows   [][]float64 `json:"rows"`
}

// WriteAppendedRows streams an append response row by row, like
// WriteMatrix. The log id is quoted as a JSON string; for the ids
// LogID returns, that is also its Go quoting.
func WriteAppendedRows(w io.Writer, logID string, total, offset int, rows [][]float64) error {
	quoted, err := json.Marshal(logID)
	if err != nil {
		return err
	}
	b := make([]byte, 0, rowBufSize(total)+len(quoted))
	b = append(b, `{"log":`...)
	b = append(b, quoted...)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"rows":[`...)
	return writeRows(w, b, rows)
}

// rowBufSize is a row buffer's starting capacity for rows of width
// entries: 64 bytes of header, and per entry the longest float
// encoding/json emits (25 bytes, e.g. -0.0000012345678901234567) plus
// its comma. A longer row or header only costs the buffer one more
// grow.
func rowBufSize(width int) int { return 64 + 26*width }

// writeRows appends each row to b, which holds the layout's header on
// entry, writes it, and reuses b for the next row; "]}" closes the
// layout.
func writeRows(w io.Writer, b []byte, rows [][]float64) error {
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("service: matrix row %d entry %d is %v, not a JSON number", i, j, v)
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
		if _, err := w.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
	_, err := w.Write(append(b, "]}"...))
	return err
}

// appendFloat formats a finite v exactly as encoding/json does: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent left unpadded.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ReadMatrix decodes a WriteMatrix stream, validating the dimensions.
func ReadMatrix(r io.Reader) (dpe.Matrix, error) {
	d := getRowReader(r)
	defer d.release()
	d.expect("{")
	n := d.count(`"n"`)
	d.expect(",")
	d.rows(n, n)
	d.end()
	if d.err != nil {
		return nil, fmt.Errorf("service: decoding matrix: %w", d.err)
	}
	return d.cut(n, n), nil
}

// ReadAppendedRows decodes a WriteAppendedRows stream, validating that
// the row count and widths match the header.
func ReadAppendedRows(r io.Reader) (*AppendedRows, error) {
	d := getRowReader(r)
	defer d.release()
	d.expect("{")
	log := d.str(`"log"`)
	d.expect(",")
	n := d.count(`"n"`)
	d.expect(",")
	offset := d.count(`"offset"`)
	if d.err == nil && n < offset {
		d.err = fmt.Errorf("appended rows span %d..%d", offset, n)
	}
	d.expect(",")
	d.rows(n-offset, n)
	d.end()
	if d.err != nil {
		return nil, fmt.Errorf("service: decoding appended rows: %w", d.err)
	}
	return &AppendedRows{Log: log, N: n, Offset: offset, Rows: d.cut(n-offset, n)}, nil
}

// rowReader scans one row layout off a buffered stream. It accepts JSON
// whitespace between tokens, keys only literally and in writer order,
// strict RFC 8259 numbers, and nothing but whitespace between the
// closing brace and EOF. Values land in the vals scratch as they
// arrive; the result is allocated once, at its exact size, after the
// last byte — so a header count never allocates ahead of the bytes
// behind it. Errors are sticky: after the first, every step is a no-op
// and err reports it.
type rowReader struct {
	br   *bufio.Reader
	err  error
	vals []float64 // every row's entries, end to end
}

// spareRowReaders keeps readers, with their grown scratch, between
// calls, so the decoded rows are the one allocation that scales with
// the matrix. It holds four: up to four decodes at a time reuse a
// scratch, and more allocate their own. A sync.Pool would not do: GCs
// empty it, and under matrix traffic they come every op or two.
var spareRowReaders = make(chan *rowReader, 4)

// maxSpareVals caps the scratch a spare reader keeps at 4 MiB, room for
// a 512×512 matrix, so the spares pin at most 16 MiB.
const maxSpareVals = 1 << 19

func getRowReader(r io.Reader) *rowReader {
	var d *rowReader
	select {
	case d = <-spareRowReaders:
	default:
		d = &rowReader{br: bufio.NewReader(nil)}
	}
	d.br.Reset(r)
	return d
}

func (d *rowReader) release() {
	d.br.Reset(nil)
	d.err = nil
	if cap(d.vals) > maxSpareVals {
		d.vals = nil
	}
	select {
	case spareRowReaders <- d:
	default:
	}
}

// next returns the next byte; a layout never ends mid-token, so EOF
// here is a truncated stream.
func (d *rowReader) next() byte {
	if d.err != nil {
		return 0
	}
	c, err := d.br.ReadByte()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	d.err = err
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// token skips whitespace and returns the first byte of the next token.
func (d *rowReader) token() byte {
	c := d.next()
	for isSpace(c) {
		c = d.next()
	}
	return c
}

func (d *rowReader) unexpected(c byte, want string) {
	if d.err == nil {
		d.err = fmt.Errorf("unexpected %q, want %s", c, want)
	}
}

// expect consumes the literal token s.
func (d *rowReader) expect(s string) {
	c := d.token()
	for i := 0; i < len(s); i++ {
		if i > 0 {
			c = d.next()
		}
		if c != s[i] {
			d.unexpected(c, "`"+s+"`")
			return
		}
	}
}

// count scans the field `key: N` for a non-negative integer N.
func (d *rowReader) count(key string) int {
	d.expect(key)
	d.expect(":")
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil || n < 0 {
		d.err = fmt.Errorf("%s is %s, want a count", key, tok)
	}
	return n
}

// str scans the field `key: "…"`, decoding the string's escapes as JSON.
func (d *rowReader) str(key string) string {
	d.expect(key)
	d.expect(":")
	c := d.token()
	if c != '"' {
		d.unexpected(c, "string")
		return ""
	}
	tok := []byte{c}
	for d.err == nil {
		c = d.next()
		tok = append(tok, c)
		switch c {
		case '\\':
			tok = append(tok, d.next())
		case '"':
			var s string
			d.err = json.Unmarshal(tok, &s)
			return s
		}
	}
	return ""
}

// number consumes one number and returns its bytes, scanned in place in
// the read buffer; they stay valid until the next read. A number must
// fit in the buffer (4 KiB); the writers' longest is 25 bytes.
func (d *rowReader) number() []byte {
	d.token()
	if d.err != nil {
		return nil
	}
	_ = d.br.UnreadByte() // cannot fail: the last call was a read
	for {
		buf, _ := d.br.Peek(d.br.Buffered())
		n := numberLen(buf)
		if n < 0 {
			d.err = fmt.Errorf("malformed number at %q", buf[:min(len(buf), 24)])
			return nil
		}
		if n < len(buf) { // the byte after the number is buffered
			_, _ = d.br.Discard(n) // cannot fail: n bytes are buffered
			return buf[:n]
		}
		if _, err := d.br.Peek(n + 1); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			d.err = err
			return nil
		}
	}
}

// numberLen returns the length of the RFC 8259 number b starts with,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or -1 if b starts with
// none. len(b) means the number may continue past b.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return i
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		i = digitsEnd(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) {
			return i
		}
		if !isDigit(b[i]) {
			return -1
		}
		i = digitsEnd(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) {
			return i
		}
		if !isDigit(b[i]) {
			return -1
		}
		i = digitsEnd(b, i)
	}
	return i
}

// digitsEnd returns the index of the first non-digit in b at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// rows scans the field `"rows": [[…],…]`: exactly count rows of width
// entries each, appended to vals.
func (d *rowReader) rows(count, width int) {
	d.expect(`"rows"`)
	d.expect(":")
	d.expect("[")
	d.vals = d.vals[:0]
	got := 0
	c := d.token()
	for c != ']' && d.err == nil {
		if got > 0 {
			if c != ',' {
				d.unexpected(c, "`,` or `]`")
				return
			}
			c = d.token()
		}
		if c != '[' {
			d.unexpected(c, "`[`")
			return
		}
		d.row(got, width)
		got++
		c = d.token()
	}
	if d.err == nil && got != count {
		d.err = fmt.Errorf("%d rows, header says %d", got, count)
	}
}

// row scans the entries of row i, whose '[' is consumed.
func (d *rowReader) row(i, width int) {
	c := d.token()
	if c == ']' {
		if width != 0 && d.err == nil {
			d.err = fmt.Errorf("row %d has 0 entries, want %d", i, width)
		}
		return
	}
	if d.err == nil {
		_ = d.br.UnreadByte() // cannot fail: the last call was a read
	}
	for j := 0; d.err == nil; j++ {
		tok := d.number()
		if d.err != nil {
			return
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			d.err = err
			return
		}
		d.vals = append(d.vals, v)
		switch c = d.token(); c {
		case ',':
		case ']':
			if j+1 != width {
				d.err = fmt.Errorf("row %d has %d entries, want %d", i, j+1, width)
			}
			return
		default:
			d.unexpected(c, "`,` or `]`")
		}
	}
}

// end consumes the closing '}' and reads to EOF, accepting only
// whitespace after it.
func (d *rowReader) end() {
	d.expect("}")
	for d.err == nil {
		c, err := d.br.ReadByte()
		if err == io.EOF {
			return
		}
		if err != nil {
			d.err = err
		} else if !isSpace(c) {
			d.err = fmt.Errorf("unexpected %q after the closing brace", c)
		}
	}
}

// cut copies vals into one flat backing array, cut into count rows of
// width entries capped the way distance.NewMatrix caps them.
func (d *rowReader) cut(count, width int) [][]float64 {
	backing := make([]float64, len(d.vals))
	copy(backing, d.vals)
	rows := make([][]float64, count)
	for i := range rows {
		rows[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}
