package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	dpe "repro"
	"repro/internal/db"
	"repro/internal/value"
)

// TestValueRoundTrip checks every value kind survives the wire exactly,
// including through JSON bytes — full-range int64s and floats must not
// pass through float64 truncation.
func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Null(),
		value.Int(0),
		value.Int(math.MaxInt64),
		value.Int(math.MinInt64),
		value.Float(0.1),
		value.Float(1e-300),
		value.Float(-123456.789),
		value.Str(""),
		value.Str("O'Hara \x00 ünicode"),
		value.Bytes(nil),
		value.Bytes([]byte{0, 1, 2, 0xff}),
	}
	for _, v := range vals {
		wv, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		b, err := json.Marshal(wv)
		if err != nil {
			t.Fatal(err)
		}
		var decoded WireValue
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatal(err)
		}
		back, err := decoded.Decode()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if back.Kind() != v.Kind() || back.Key() != v.Key() {
			t.Errorf("%v round-trips to %v (keys %q vs %q)", v, back, v.Key(), back.Key())
		}
	}
	if _, err := (WireValue{Kind: "int"}).Decode(); err == nil {
		t.Error("int without payload should fail to decode")
	}
	if _, err := (WireValue{Kind: "imaginary"}).Decode(); err == nil {
		t.Error("unknown kind should fail to decode")
	}
}

// TestCatalogRoundTrip checks a multi-table catalog (including a BYTES
// ciphertext column and NULLs) is rebuilt identically.
func TestCatalogRoundTrip(t *testing.T) {
	cat := db.NewCatalog()
	tbl := cat.MustCreate("t1", []db.Column{
		{Name: "a", Type: db.TypeInt},
		{Name: "b", Type: db.TypeString},
		{Name: "c", Type: db.TypeBytes},
	})
	tbl.MustInsert(db.Row{value.Int(1), value.Str("x"), value.Bytes([]byte{9, 8})})
	tbl.MustInsert(db.Row{value.Null(), value.Null(), value.Null()})
	cat.MustCreate("t2", []db.Column{{Name: "f", Type: db.TypeFloat}}).
		MustInsert(db.Row{value.Float(2.5)})

	wc, err := EncodeCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wc)
	if err != nil {
		t.Fatal(err)
	}
	var decoded WireCatalog
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.TableNames(), cat.TableNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tables %v, want %v", got, want)
	}
	for _, name := range cat.TableNames() {
		orig, _ := cat.Table(name)
		got, _ := back.Table(name)
		if !reflect.DeepEqual(got.Columns, orig.Columns) {
			t.Errorf("table %q columns %v, want %v", name, got.Columns, orig.Columns)
		}
		if len(got.Rows) != len(orig.Rows) {
			t.Fatalf("table %q has %d rows, want %d", name, len(got.Rows), len(orig.Rows))
		}
		for i := range orig.Rows {
			for j := range orig.Rows[i] {
				if got.Rows[i][j].Key() != orig.Rows[i][j].Key() {
					t.Errorf("table %q cell (%d,%d): %v, want %v", name, i, j, got.Rows[i][j], orig.Rows[i][j])
				}
			}
		}
	}
}

// TestDomainsRoundTrip checks the Domains artifact survives the wire.
func TestDomainsRoundTrip(t *testing.T) {
	domains := map[string]dpe.Domain{
		"ra":    {Min: value.Float(0), Max: value.Float(360)},
		"class": {Min: value.Str("GALAXY"), Max: value.Str("STAR")},
		"nvote": {Min: value.Int(-5), Max: value.Int(1 << 60)},
	}
	wd, err := EncodeDomains(domains)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wd)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]WireDomain
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDomains(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(domains) {
		t.Fatalf("got %d domains, want %d", len(back), len(domains))
	}
	for attr, d := range domains {
		g := back[attr]
		if g.Min.Key() != d.Min.Key() || g.Max.Key() != d.Max.Key() {
			t.Errorf("domain %q: %v..%v, want %v..%v", attr, g.Min, g.Max, d.Min, d.Max)
		}
	}
}

// TestAggregatorKeyRoundTrip checks the Paillier public key rebuilds
// with a working evaluator: the wire-reconstructed aggregator must
// produce a ciphertext the owner decrypts to the true sum.
func TestAggregatorKeyRoundTrip(t *testing.T) {
	w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{Seed: "aggkey", Queries: 4, Rows: 10})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := dpe.NewOwner([]byte("aggkey-test"), w.Schema, dpe.Config{PaillierBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	key := owner.ResultAggregatorKey()
	b, err := json.Marshal(EncodeAggregatorKey(key))
	if err != nil {
		t.Fatal(err)
	}
	var decoded WireAggregatorKey
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if back.N.Cmp(key.N) != 0 || back.N2.Cmp(key.N2) != 0 {
		t.Error("aggregator key does not round-trip")
	}
	if _, err := (&WireAggregatorKey{}).Decode(); err == nil {
		t.Error("empty modulus should fail to decode")
	}
}

// TestMatrixStreamRoundTrip checks both row layouts. Random matrices
// salted with the float-format boundaries must encode byte-for-byte as
// the header plus one json.Marshal per row did, and decode to the same
// bits, also fed one byte at a time. Non-finite entries must fail to
// encode. Malformed streams, and every truncation of a valid one, must
// fail to decode without panicking. The append_mine layout must reject
// malformed streams and accept rows left out, whitespace between
// tokens, and braces inside the result's strings.
func TestMatrixStreamRoundTrip(t *testing.T) {
	m := dpe.Matrix{
		{0, 0.5, 1},
		{0.5, 0, 0.25},
		{1, 0.25, 0},
	}
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrix(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("matrix round-trips to %v, want %v", back, m)
	}
	var empty bytes.Buffer
	if err := WriteMatrix(&empty, dpe.Matrix{}); err != nil {
		t.Fatal(err)
	}
	if back, err := ReadMatrix(bytes.NewReader(empty.Bytes())); err != nil || len(back) != 0 {
		t.Errorf("empty matrix round-trips to %v, %v", back, err)
	}
	spaced := " \n{ \"n\" : 2 ,\t\"rows\" : [ [ 0 , 1e-7 ] ,\r\n[ -0 , 2E+3 ] ] }\n "
	if back, err := ReadMatrix(strings.NewReader(spaced)); err != nil || !reflect.DeepEqual(back, dpe.Matrix{{0, 1e-7}, {0, 2000}}) {
		t.Errorf("whitespace between tokens decodes to %v, %v", back, err)
	}

	rng := rand.New(rand.NewPCG(15, 15))
	for _, n := range []int{1, 2, 5, 16} {
		m := randomMatrix(rng, n)
		var got bytes.Buffer
		if err := WriteMatrix(&got, m); err != nil {
			t.Fatal(err)
		}
		checkRowStream(t, got.Bytes(), jsonFramed(t, fmt.Sprintf(`{"n":%d,"rows":[`, n), m), func(r io.Reader) ([][]float64, error) {
			return ReadMatrix(r)
		}, m)

		const logID = "l-0123abcd"
		offset := n / 2
		got.Reset()
		if err := WriteAppendedRows(&got, logID, n, offset, m[offset:]); err != nil {
			t.Fatal(err)
		}
		header := fmt.Sprintf(`{"log":%q,"n":%d,"offset":%d,"rows":[`, logID, n, offset)
		checkRowStream(t, got.Bytes(), jsonFramed(t, header, m[offset:]), func(r io.Reader) ([][]float64, error) {
			a, err := ReadAppendedRows(r)
			if err != nil {
				return nil, err
			}
			if a.Log != logID || a.N != n || a.Offset != offset {
				t.Errorf("appended header decodes to %q %d %d, want %q %d %d", a.Log, a.N, a.Offset, logID, n, offset)
			}
			return a.Rows, nil
		}, m[offset:])
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := dpe.Matrix{{0, bad}, {bad, 0}}
		if err := WriteMatrix(io.Discard, m); err == nil {
			t.Errorf("WriteMatrix accepted %v", bad)
		}
		if err := WriteAppendedRows(io.Discard, "l-a", 2, 1, m[1:]); err == nil {
			t.Errorf("WriteAppendedRows accepted %v", bad)
		}
	}

	for _, in := range []string{
		``,
		`{"n":1,"rows":[[01]]}`,
		`{"n":1,"rows":[[-01]]}`,
		`{"n":1,"rows":[[.5]]}`,
		`{"n":1,"rows":[[Inf]]}`,
		`{"n":1,"rows":[[NaN]]}`,
		`{"n":1,"rows":[[-]]}`,
		`{"n":1,"rows":[[+1]]}`,
		`{"n":1,"rows":[[1.]]}`,
		`{"n":1,"rows":[[1e]]}`,
		`{"n":1,"rows":[[1e+]]}`,
		`{"n":1,"rows":[[0x10]]}`,
		`{"n":1,"rows":[[1e400]]}`,
		`{"n":1,"rows":[["0"]]}`,
		`{"n":1,"rows":[[0 1]]}`,
		`{"n":2,"rows":[[1,]]}`,
		`{"n":1,"rows":[[1],]}`,
		`{"n":1,"rows":[[1]]]}`,
		`{"rows":[[1]],"n":1}`,
		`{"n":1,"extra":0,"rows":[[1]]}`,
		`{"N":1,"rows":[[1]]}`,
		`{"n" 1,"rows":[[1]]}`,
		`{"n":1 "rows":[[1]]}`,
		`{"n":1,"rows":[[1]]}x`,
		`{"n":1,"rows":[[1]]}{}`,
		`{"n":1,"rows":[[1]]} ,`,
		`{"n":-1,"rows":[]}`,
		`{"n":1.0,"rows":[[0]]}`,
		`{"n":1e0,"rows":[[0]]}`,
		`{"n":99999999999999999999,"rows":[]}`,
		`{"n":2,"rows":[[0,1]]}`,
		`{"n":2,"rows":[[0],[1]]}`,
		`{"n":1,"rows":[[0],[1]]}`,
		`{"n":1,"rows":[[0,1]]}`,
		`{"n":1,"rows":[[]]}`,
		`{"n":1000000000,"rows":[`,
	} {
		if back, err := ReadMatrix(strings.NewReader(in)); err == nil {
			t.Errorf("ReadMatrix(%q) = %v, want an error", in, back)
		}
	}
	for _, in := range []string{
		``,
		`{"log":"l-a","n":2,"offset":1,"rows":[[01,1]]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[.5,1]]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[Inf,1]]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[1,]]}`,
		`{"n":2,"log":"l-a","offset":1,"rows":[[0,1]]}`,
		`{"log":"l-a","offset":1,"n":2,"rows":[[0,1]]}`,
		`{"log":"l-a","n":2,"offset":1,"extra":0,"rows":[[0,1]]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]]}x`,
		`{"log":l-a,"n":2,"offset":1,"rows":[[0,1]]}`,
		`{"log":"l-` + "\x01" + `","n":2,"offset":1,"rows":[[0,1]]}`,
		`{"log":"l-a\q","n":2,"offset":1,"rows":[[0,1]]}`,
		`{"log":"l-a","n":1,"offset":2,"rows":[]}`,
		`{"log":"l-a","n":2,"offset":-1,"rows":[]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1],[1,0]]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0]]}`,
		`{"log":"l-a","n":1000000000,"offset":0,"rows":[`,
	} {
		if back, err := ReadAppendedRows(strings.NewReader(in)); err == nil {
			t.Errorf("ReadAppendedRows(%q) = %+v, want an error", in, back)
		}
	}
	if a, err := ReadAppendedRows(strings.NewReader(`{"log":"l-\u00e9\/","n":1,"offset":1,"rows":[]}`)); err != nil || a.Log != "l-é/" {
		t.Errorf("escaped log id decodes to %+v, %v", a, err)
	}

	for _, in := range []string{
		``,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":null}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":[]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":{"labels":"x"}}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":{"labels":[0,1]]}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":{}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":{}}x`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":{}}{}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[],"result":{}}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0]],"result":{}}`,
		`{"log":"l-a","n":2,"offset":1,"result":{},"rows":[[0,1]]}`,
		`{"log":"l-a","n":2,"offset":1,"extra":0,"result":{}}`,
		`{"log":"l-a","n":1,"offset":2,"result":{}}`,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":{"a":"}"}`,
	} {
		if back, err := readAppendMine(strings.NewReader(in)); err == nil {
			t.Errorf("readAppendMine(%q) = %+v, want an error", in, back)
		}
	}
	for _, in := range []string{
		`{"log":"l-a","n":2,"offset":1,"result":{}}`,
		` { "log" : "l-a" , "n" : 1 , "offset" : 1 , "rows" : [ ] , "result" : { "labels" : [ 0 ] } } `,
		`{"log":"l-a","n":2,"offset":1,"rows":[[0,1]],"result":{"a":"}]\"{","labels":[0,1]}}` + "\n",
	} {
		if _, err := readAppendMine(strings.NewReader(in)); err != nil {
			t.Errorf("readAppendMine(%q): %v", in, err)
		}
	}
}

// checkRowStream checks one encoded row stream: the bytes equal want,
// and read decodes them (whole and one byte at a time) to rows with
// the same bits, while every truncation fails.
func checkRowStream(t *testing.T, got, want []byte, read func(io.Reader) ([][]float64, error), rows [][]float64) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("stream\n%s\nwant json.Marshal framing\n%s", got, want)
	}
	for _, r := range []io.Reader{bytes.NewReader(got), iotest.OneByteReader(bytes.NewReader(got))} {
		back, err := read(r)
		if err != nil {
			t.Fatalf("decoding %s: %v", got, err)
		}
		if !sameBits(back, rows) {
			t.Fatalf("%s decodes to %v, want %v", got, back, rows)
		}
		for i, row := range back {
			if cap(row) != len(row) {
				t.Fatalf("decoded row %d has capacity %d past its %d entries: an append would overwrite row %d", i, cap(row), len(row), i+1)
			}
		}
	}
	for k := range got {
		if back, err := read(bytes.NewReader(got[:k])); err == nil {
			t.Fatalf("truncation to %d of %d bytes decodes to %v, want an error", k, len(got), back)
		}
	}
}

// jsonFramed is the stream the row codec replaced: the header, then
// json.Marshal once per row.
func jsonFramed(t *testing.T, header string, rows [][]float64) []byte {
	t.Helper()
	b := []byte(header)
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		rb, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, rb...)
	}
	return append(b, "]}"...)
}

// formatBoundaries are the floats where encoding/json's number format
// changes or runs longest.
var formatBoundaries = []float64{
	0, math.Copysign(0, -1),
	1e-6, math.Nextafter(1e-6, 0),
	1e21, math.Nextafter(1e21, 0),
	5e-324, math.MaxFloat64,
	1e-7, 1.2345678901234567e-6, 1e20, 0.1, 1,
}

// randomMatrix fills an n×n matrix with signed format boundaries,
// distance-like fractions, and arbitrary finite bit patterns.
func randomMatrix(rng *rand.Rand, n int) dpe.Matrix {
	m := make(dpe.Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			var v float64
			switch rng.IntN(3) {
			case 0:
				v = formatBoundaries[rng.IntN(len(formatBoundaries))]
			case 1:
				v = rng.Float64()
			default:
				for v = math.Inf(1); math.IsInf(v, 0) || math.IsNaN(v); {
					v = math.Float64frombits(rng.Uint64())
				}
			}
			if rng.IntN(2) == 0 {
				v = -v
			}
			m[i][j] = v
		}
	}
	return m
}

// sameBits reports whether a and b have the same shape and bit-identical
// entries (so -0 differs from 0).
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// allocatedBy returns the bytes f allocates, from runtime.MemStats.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzRows checks the three invariants of a row-stream reader on one
// input: it does not panic; it allocates at most 1 MiB plus 64 bytes per
// input byte, so a hostile header such as {"n":1000000000,"rows":[
// fails within a fixed 1 MiB; and what it accepts re-encodes and
// decodes to the same header and the same bits. read returns the rows,
// the header's other fields as a string, and a writer re-encoding both.
func fuzzRows(t *testing.T, data []byte, read func(io.Reader) ([][]float64, string, func(io.Writer) error, error)) {
	var rows [][]float64
	var header string
	var write func(io.Writer) error
	var err error
	if got, bound := allocatedBy(func() { rows, header, write, err = read(bytes.NewReader(data)) }), uint64(1<<20+64*len(data)); got > bound {
		t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), got, bound)
	}
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatalf("re-encoding accepted input %q: %v", data, err)
	}
	back, backHeader, _, err := read(&buf)
	if err != nil {
		t.Fatalf("decoding re-encoded %q: %v", buf.Bytes(), err)
	}
	if backHeader != header || !sameBits(back, rows) {
		t.Fatalf("%q re-decodes to %s %v, want %s %v", data, backHeader, back, header, rows)
	}
}

func FuzzReadMatrix(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRows(t, data, func(r io.Reader) ([][]float64, string, func(io.Writer) error, error) {
			m, err := ReadMatrix(r)
			return m, "", func(w io.Writer) error { return WriteMatrix(w, m) }, err
		})
	})
}

func FuzzReadAppendedRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRows(t, data, func(r io.Reader) ([][]float64, string, func(io.Writer) error, error) {
			a, err := ReadAppendedRows(r)
			if err != nil {
				return nil, "", nil, err
			}
			return a.Rows, fmt.Sprintf("%q %d %d", a.Log, a.N, a.Offset), func(w io.Writer) error {
				return WriteAppendedRows(w, a.Log, a.N, a.Offset, a.Rows)
			}, nil
		})
	})
}

// FuzzReadAppendMine fuzzes the append_mine reader from the pinned
// bodies, with fuzzRows' invariants; the result object is compared as
// its encoding/json encoding, part of the header.
func FuzzReadAppendMine(f *testing.F) {
	_, bodies := goldenAppendMineBodies(f)
	for _, body := range bodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRows(t, data, func(r io.Reader) ([][]float64, string, func(io.Writer) error, error) {
			a, err := readAppendMine(r)
			if err != nil {
				return nil, "", nil, err
			}
			result, err := json.Marshal(a.Result)
			if err != nil {
				t.Fatalf("encoding the result of accepted input %q: %v", data, err)
			}
			return a.Rows, fmt.Sprintf("%q %d %d %s", a.Log, a.N, a.Offset, result), func(w io.Writer) error {
				return writeAppendMine(w, a.Log, a.N, a.Offset, a.Rows, a.Result)
			}, nil
		})
	})
}

// FuzzCreateSessionRequest runs POST /v1/sessions bodies through every
// decoder a session is built from: the JSON decoder, WireCatalog.Decode,
// DecodeDomains, WireAggregatorKey.Decode and buildProvider. Nothing may
// panic; all of it together may allocate at most 1 MiB plus 256 bytes
// per input byte; and an accepted catalog and domain map must survive
// EncodeCatalog/EncodeDomains, JSON and decoding again unchanged.
func FuzzCreateSessionRequest(f *testing.F) {
	seedCat := db.NewCatalog()
	users := seedCat.MustCreate("users", []db.Column{
		{Name: "id", Type: db.TypeInt}, {Name: "name", Type: db.TypeString},
		{Name: "score", Type: db.TypeFloat}, {Name: "blob", Type: db.TypeBytes},
	})
	users.MustInsert(db.Row{value.Int(math.MinInt64), value.Str("O'Hara \x00"), value.Float(-0.25), value.Bytes([]byte{0, 0xff})})
	users.MustInsert(db.Row{value.Null(), value.Null(), value.Null(), value.Null()})
	seedDomains := map[string]dpe.Domain{
		"age":  {Min: value.Int(0), Max: value.Int(120)},
		"name": {Min: value.Str(""), Max: value.Str("~~~~")},
	}
	key := &dpe.AggregatorKey{N: big.NewInt(3233)}
	for _, m := range []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea} {
		req, err := BuildCreateSessionRequest(m, WithCatalog(seedCat, key), WithDomains(seedDomains), WithAccessAreaX(0.25))
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"measure":"result","catalog":{"tables":[{"name":"t","columns":[{"name":"a","type":"INT"}],"rows":[[{"kind":"int","int":1}],[{"kind":"float","float":1}]]}]}}`))
	f.Add([]byte(`{"measure":"access-area","domains":{"a":{"min":{"kind":"str","str":"b"},"max":{"kind":"str","str":"a"}}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cat *dpe.Catalog
		var domains map[string]dpe.Domain
		decode := func() {
			var req CreateSessionRequest
			if json.Unmarshal(data, &req) != nil || req.Measure == nil {
				return
			}
			// Each decoder runs on its own, as buildProvider stops at
			// the first artifact it rejects; a rejected one yields nil.
			if req.Catalog != nil {
				cat, _ = req.Catalog.Decode()
			}
			if req.Domains != nil {
				domains, _ = DecodeDomains(req.Domains)
			}
			if req.AggregatorKey != nil {
				req.AggregatorKey.Decode()
			}
			buildProvider(&req, 1, nil)
		}
		if got, bound := allocatedBy(decode), uint64(1<<20+256*len(data)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), got, bound)
		}
		if cat != nil {
			roundTrip(t, cat, EncodeCatalog, func(w *WireCatalog) (*dpe.Catalog, error) { return w.Decode() })
		}
		if domains != nil {
			roundTrip(t, domains, EncodeDomains, DecodeDomains)
		}
	})
}

// roundTrip checks that v's wire form survives JSON and decoding: the
// decoded value encodes to the same JSON bytes as v.
func roundTrip[V, W any](t *testing.T, v V, encode func(V) (W, error), decode func(W) (V, error)) {
	t.Helper()
	marshal := func(v V) []byte {
		w, err := encode(v)
		if err != nil {
			t.Fatalf("encoding an accepted %T: %v", v, err)
		}
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("marshaling an accepted %T: %v", v, err)
		}
		return b
	}
	b := marshal(v)
	var w W
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatalf("unmarshaling %s: %v", b, err)
	}
	back, err := decode(w)
	if err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	if again := marshal(back); !bytes.Equal(again, b) {
		t.Fatalf("%s decodes and re-encodes to %s", b, again)
	}
}

// TestWireAllocBudget keeps per-row json.Marshal and whole-body
// buffering from coming back: WriteMatrix, ReadMatrix and LogID make as
// many allocations at n=512 as at n=64, and ReadMatrix at n=256
// allocates at most the matrix it returns (n²·8 bytes of entries, n·24
// of row headers) plus 64 KiB.
func TestWireAllocBudget(t *testing.T) {
	// Drop the spare readers earlier tests left, so these sequential
	// calls reuse one reader and its scratch.
	for len(spareRowReaders) > 0 {
		<-spareRowReaders
	}
	rng := rand.New(rand.NewPCG(64, 512))
	type counts struct{ write, read, logID float64 }
	measure := func(n int) counts {
		m := randomMatrix(rng, n)
		var buf bytes.Buffer
		if err := WriteMatrix(&buf, m); err != nil {
			t.Fatal(err)
		}
		log := make([]string, n)
		for i := range log {
			log[i] = fmt.Sprintf("SELECT c%d FROM t WHERE a > %d", i, rng.IntN(1000))
		}
		log[0] = strings.Repeat("x", 200) // the longest query
		return counts{
			write: testing.AllocsPerRun(3, func() { WriteMatrix(io.Discard, m) }),
			read:  testing.AllocsPerRun(3, func() { ReadMatrix(bytes.NewReader(buf.Bytes())) }),
			logID: testing.AllocsPerRun(3, func() { LogID(log) }),
		}
	}
	if small, large := measure(64), measure(512); small != large {
		t.Errorf("allocations per call at n=64 %+v, at n=512 %+v: they grow with n", small, large)
	}

	const n = 256
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, randomMatrix(rng, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMatrix(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	budget := uint64(n*n*8 + n*24 + 64<<10)
	if got := allocatedBy(func() { ReadMatrix(bytes.NewReader(buf.Bytes())) }); got > budget {
		t.Errorf("ReadMatrix at n=%d allocated %d bytes, budget %d", n, got, budget)
	}
}

// TestMineSpecWireRoundTrip checks spec fields and the algorithm's text
// form survive the wire.
func TestMineSpecWireRoundTrip(t *testing.T) {
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, K: 3, Eps: 0.4, MinPts: 2, P: 0.9, D: 0.8, Query: 5}
	b, err := json.Marshal(EncodeMineSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"dbscan"`)) {
		t.Errorf("wire spec %s should name the algorithm", b)
	}
	var decoded WireMineSpec
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	got, err := decoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Errorf("spec round-trips to %+v, want %+v", got, spec)
	}
	// A spec whose algorithm field is absent (or misspelled, which JSON
	// decoding silently drops) must error, not silently run k-medoids.
	var noAlgo WireMineSpec
	if err := json.Unmarshal([]byte(`{"algoritm":"knn","k":5}`), &noAlgo); err != nil {
		t.Fatal(err)
	}
	if _, err := noAlgo.Decode(); err == nil {
		t.Error("spec without an algorithm should fail to decode")
	}
}
