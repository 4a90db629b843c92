package dpe

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mining"
)

// The v1 fixtures under testdata/minestate_v1 were written by the
// JSON-era MarshalMineState, a format no binary writes any more: one
// state per algorithm, mined over the first 9 queries of log.txt (14
// queries). The decoder must reject them. The tests here mine the same
// prefix and extend it by the remaining 5.
const v1FixtureDir = "testdata/minestate_v1"

// fixtureSpecs are the specs the v1 fixtures were mined under, keyed by
// the fixture's file name.
var fixtureSpecs = []MineSpec{
	{Algorithm: MineKMedoids, K: 3},
	{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 2},
	{Algorithm: MineCompleteLink, K: 3},
	{Algorithm: MineOutliers, P: 0.8, D: 0.7},
	{Algorithm: MineKNN, Query: 1, K: 3},
	{Algorithm: MineApriori, MinSupport: 4, MaxLen: 2},
}

func fixtureLog(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(v1FixtureDir, "log.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// prepareFixture prepares the fixture log's first 9 queries and all 14
// under the token measure.
func prepareFixture(t *testing.T) (p *Provider, base, full *PreparedLog) {
	t.Helper()
	ctx := context.Background()
	log := fixtureLog(t)
	p, err := NewProvider(MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	if base, err = p.Prepare(ctx, log[:9]); err != nil {
		t.Fatal(err)
	}
	if full, err = p.Prepare(ctx, log); err != nil {
		t.Fatal(err)
	}
	return p, base, full
}

// sameState is reflect.DeepEqual with floats compared by their bits, so
// a NaN cost equals itself and -0 differs from 0.
func sameState(a, b *MineState) bool {
	split := func(s *MineState) ([4]uint64, MineState) {
		rest := *s
		bits := [4]uint64{math.Float64bits(s.spec.Eps), math.Float64bits(s.spec.P), math.Float64bits(s.spec.D)}
		rest.spec.Eps, rest.spec.P, rest.spec.D = 0, 0, 0
		if s.kmed != nil {
			k := *s.kmed
			bits[3], k.Cost = math.Float64bits(k.Cost), 0
			rest.kmed = &k
		}
		return bits, rest
	}
	fa, ra := split(a)
	fb, rb := split(b)
	return fa == fb && reflect.DeepEqual(ra, rb)
}

// withoutMatrix is the state v2 encodes: everything but the matrix.
func withoutMatrix(s *MineState) *MineState {
	c := *s
	c.matrix = nil
	return &c
}

// sameMine reports whether two mining results agree, clusterings
// compared after canonical relabeling.
func sameMine(a, b *MineResult) bool {
	assign := func(r *MineResult) []int {
		if r.Clusters == nil {
			return nil
		}
		return mining.CanonicalLabels(r.Clusters.Assign)
	}
	return reflect.DeepEqual(mining.CanonicalLabels(a.Labels), mining.CanonicalLabels(b.Labels)) &&
		reflect.DeepEqual(assign(a), assign(b)) &&
		reflect.DeepEqual(a.Outliers, b.Outliers) &&
		reflect.DeepEqual(a.Neighbors, b.Neighbors) &&
		mining.EqualItemsets(a.Itemsets, b.Itemsets)
}

// TestMineStateRoundTrip encodes bootstrapped and warm-extended states
// of every algorithm. Only a k-medoids state has a blob: it is
// deterministic and carries everything but the matrix, and the decoded
// state passes its checks and warm-starts to the same result as the
// in-memory one after building the whole 14-row matrix (91 pairs). The
// other algorithms' states encode to no blob, as a cold mine of the
// log rebuilds all they hold.
func TestMineStateRoundTrip(t *testing.T) {
	ctx := context.Background()
	p, base, full := prepareFixture(t)
	for _, spec := range fixtureSpecs {
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			_, state, err := p.MineIncremental(ctx, base, nil, spec)
			if err != nil {
				t.Fatal(err)
			}
			want, grown, err := p.MineIncremental(ctx, full, state, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*MineState{state, grown} {
				blob, err := MarshalMineState(s)
				if err != nil {
					t.Fatal(err)
				}
				if spec.Algorithm != MineKMedoids {
					if blob != nil {
						t.Fatalf("n=%d: a %s state encoded to %x, want no blob", s.n, spec.Algorithm, blob)
					}
					continue
				}
				again, _ := MarshalMineState(s)
				if !bytes.Equal(blob, again) {
					t.Fatal("equal states encoded to different bytes")
				}
				back, err := UnmarshalMineState(blob)
				if err != nil {
					t.Fatal(err)
				}
				if !sameState(withoutMatrix(s), back) {
					t.Fatalf("n=%d: decoded state %+v differs from %+v", s.n, back, withoutMatrix(s))
				}
			}
			if spec.Algorithm != MineKMedoids {
				return
			}

			blob, _ := MarshalMineState(state)
			restored, _ := UnmarshalMineState(blob)
			got, _, err := p.MineIncremental(ctx, full, restored, spec)
			if err != nil {
				t.Fatal(err)
			}
			if st := got.Incremental; !st.Warm || st.ColdFallback || st.PairsComputed != 14*13/2 {
				t.Errorf("restored warm run: %+v, want warm with %d pairs", st, 14*13/2)
			}
			if !sameMine(got, want) || !reflect.DeepEqual(got.Matrix, want.Matrix) {
				t.Errorf("restored warm run differs from the in-memory one")
			}
			if restored.matrix != nil {
				t.Error("the warm run wrote its matrix back into the decoded state")
			}
		})
	}
}

// TestMineStateV1Fixtures pins the retirement of the JSON-era (v1)
// format: each blob that encoder wrote is rejected, so replay and import
// count it as skipped and the log mines cold, as a fresh session's
// does.
func TestMineStateV1Fixtures(t *testing.T) {
	for _, spec := range fixtureSpecs {
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join(v1FixtureDir, spec.Algorithm.String()+".json"))
			if err != nil {
				t.Fatal(err)
			}
			s, err := UnmarshalMineState(blob)
			if err == nil {
				t.Fatalf("v1 blob decoded to %+v", s)
			}
			if !strings.Contains(err.Error(), "no mining-state header") {
				t.Errorf("v1 blob rejected with %q, want the missing-header error", err)
			}
		})
	}
}

// TestMineSpecCodecCoversEveryField sets every MineSpec field but the
// algorithm non-zero by reflection and round-trips it in a k-medoids
// state, the one algorithm persisted (and the zero value), so a field
// added to MineSpec without a codec change fails here.
func TestMineSpecCodecCoversEveryField(t *testing.T) {
	var spec MineSpec
	v := reflect.ValueOf(&spec).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeOf(MiningAlgorithm(0)):
			f.SetInt(int64(MineKMedoids))
		case f.Kind() == reflect.Int:
			f.SetInt(int64(i + 2))
		case f.Kind() == reflect.Float64:
			f.SetFloat(0.25 + float64(i))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("MineSpec.%s has kind %s, which this test and the codec do not cover", v.Type().Field(i).Name, f.Kind())
		}
	}
	blob, err := MarshalMineState(&MineState{spec: spec, kmed: &mining.KMedoidsResult{}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMineState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Spec() != spec {
		t.Errorf("spec %+v decoded as %+v", spec, back.Spec())
	}
}

// v2Blob assembles a v2 blob by hand: the header of an n-row state
// under spec, then the sections byte and raw body bytes.
func v2Blob(spec MineSpec, n uint64, sections byte, body ...[]byte) []byte {
	b := binary.AppendUvarint(appendMineHeader(nil, spec), n)
	b = append(b, sections)
	for _, part := range body {
		b = append(b, part...)
	}
	return b
}

// uv and sv encode uvarints and (zigzag) varints.
func uv(xs ...uint64) (b []byte) {
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

func sv(xs ...int64) (b []byte) {
	for _, x := range xs {
		b = binary.AppendVarint(b, x)
	}
	return b
}

// parentResultState is a result-measure apriori state written by a
// binary that keyed result tuples verbatim: mined with MinSupport 1 and
// MaxLen 2 over the first 3 queries of the "probe" workload (60 rows).
// Each tuple key ends in NUL, so that binary served no itemsets from it.
const parentResultState = "testdata/minestate_result_parent.bin"

// hostileMineStates are blobs the decoder must reject, each for one
// reason. The fuzz corpus seeds from them too. Parent-written seeds
// that this table no longer builds, among them the graph, labels and
// counts sections of the other algorithms and the forged_* states,
// stay in the corpus as inputs the decoder must reject.
func hostileMineStates(t *testing.T) map[string][]byte {
	kmed := MineSpec{Algorithm: MineKMedoids, K: 1}
	dbscan := MineSpec{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 2}
	cost := make([]byte, 8)
	body := [][]byte{uv(1), sv(0), uv(2), sv(0, 0), cost, sv(1)}
	valid := v2Blob(kmed, 2, mineHasKMedoids, body...)
	// The byte before n and the sections is the retired approximate
	// flag, which must be 0.
	approx := v2Blob(kmed, 0, mineHasKMedoids, uv(0, 0), cost, sv(0))
	approx[len(appendMineHeader(nil, kmed))-1] = 1
	parentResult, err := os.ReadFile(parentResultState)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"bad_magic":                []byte("XMS\x02"),
		"unknown_version":          append([]byte("DMS"), 3),
		"v1_unknown_version":       []byte(`{"v":3,"n":0}`),
		"v1_negative_n":            []byte(`{"v":1,"n":-1}`),
		"v1_one_way_edge":          []byte(`{"v":1,"spec":{"Algorithm":"dbscan"},"n":2,"adj":[[1],[]]}`),
		"v1_short_matrix":          []byte(`{"v":1,"n":2,"matrix":[[0,1],[1]]}`),
		"v1_unsorted_counts":       []byte(`{"v":1,"spec":{"Algorithm":"apriori"},"n":1,"counts":[{"k":"b","c":1},{"k":"a","c":1}]}`),
		"kmedoids_other_algorithm": v2Blob(dbscan, 2, mineHasKMedoids, body...),
		"kmedoids_nan_p":           v2Blob(MineSpec{Algorithm: MineKMedoids, K: 1, P: math.NaN()}, 2, mineHasKMedoids, body...),
		"kmedoids_approximate":     approx,
		"kmedoids_no_sections":     v2Blob(kmed, 0, 0),
		"kmedoids_graph_section":   v2Blob(kmed, 2, mineHasKMedoids|2, uv(1), sv(0), uv(2), sv(0, 0), cost, sv(1), uv(2, 0, 1, 1)),
		"kmedoids_n_overflows_int": v2Blob(kmed, math.MaxUint64, mineHasKMedoids, uv(0, 0), cost, sv(0)),
		"kmedoids_n_2pow62":        v2Blob(kmed, 1<<62, mineHasKMedoids, uv(1), sv(0), uv(1<<62)),
		"kmedoids_trailing_byte":   append(valid, 0),
		"assign_not_n":             v2Blob(kmed, 3, mineHasKMedoids, uv(1), sv(0), uv(2), sv(0, 0), cost, sv(1)),
		"assign_out_of_range":      v2Blob(kmed, 2, mineHasKMedoids, uv(1), sv(0), uv(2), sv(0, 1), cost, sv(1)),
		"medoids_descending":       v2Blob(kmed, 2, mineHasKMedoids, uv(2), sv(1, 0), uv(2), sv(0, 1), cost, sv(1)),
		"medoid_out_of_range":      v2Blob(kmed, 2, mineHasKMedoids, uv(1), sv(2), uv(2), sv(0, 0), cost, sv(1)),
		"parent_result_state":      parentResult,
		"truncated_float":          v2Blob(kmed, 1, mineHasKMedoids, uv(1), sv(0), uv(1), sv(0), cost[:3]),
	}
}

// mineStateCorpus is FuzzUnmarshalMineState's seed corpus directory.
var mineStateCorpus = filepath.Join("testdata", "fuzz", "FuzzUnmarshalMineState")

// corpusSeed reads one []byte seed of the fuzz corpus.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(mineStateCorpus, name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("seed %s is not one []byte value", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(s)
}

// The files under testdata/minestate_v2 were written by the encoder of
// the release before only k-medoids states were persisted: one v2
// state per other algorithm, mined under fixtureSpecs over the first 9
// queries of the v1 fixture log, byte for byte the corpus's v2_* seeds.
const v2FixtureDir = "testdata/minestate_v2"

// TestMineStateParentV2Blobs pins the formats a parent-written v2 blob
// meets. Its k-medoids state (the v2_k-medoids seed) still decodes,
// re-encodes to itself, and is what the encoder writes for the same
// state today. Every other algorithm's state is rejected, so replay
// and import count it as skipped and the log mines cold.
func TestMineStateParentV2Blobs(t *testing.T) {
	ctx := context.Background()
	p, base, _ := prepareFixture(t)
	for _, spec := range fixtureSpecs {
		name := spec.Algorithm.String()
		t.Run(name, func(t *testing.T) {
			seed := corpusSeed(t, "v2_"+name)
			if spec.Algorithm == MineKMedoids {
				_, state, err := p.MineIncremental(ctx, base, nil, spec)
				if err != nil {
					t.Fatal(err)
				}
				if blob, err := MarshalMineState(state); err != nil || !bytes.Equal(blob, seed) {
					t.Fatalf("the fixture state encodes to %x (%v), the parent's encoder wrote %x", blob, err, seed)
				}
				s, err := UnmarshalMineState(seed)
				if err != nil {
					t.Fatal(err)
				}
				if blob, err := MarshalMineState(s); err != nil || !bytes.Equal(blob, seed) {
					t.Fatalf("the decoded seed re-encodes to %x (%v), want %x", blob, err, seed)
				}
				return
			}
			blob, err := os.ReadFile(filepath.Join(v2FixtureDir, name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, seed) {
				t.Fatalf("%s.bin differs from the v2_%s seed", name, name)
			}
			if s, err := UnmarshalMineState(blob); err == nil {
				t.Fatalf("a parent-written %s state decoded to %+v", name, s)
			}
		})
	}
}

func TestUnmarshalMineStateRejects(t *testing.T) {
	valid := v2Blob(MineSpec{Algorithm: MineKMedoids, K: 1}, 2, mineHasKMedoids, uv(1), sv(0), uv(2), sv(0, 0), make([]byte, 8), sv(1))
	if _, err := UnmarshalMineState(valid); err != nil {
		t.Fatalf("the valid base of the hostile cases is rejected: %v", err)
	}
	for name, blob := range hostileMineStates(t) {
		if s, err := UnmarshalMineState(blob); err == nil {
			t.Errorf("%s: %x decoded to %+v", name, blob, s)
		}
	}
	// Every corpus seed but the k-medoids state is rejected, including
	// the parent-written ones the table above no longer builds.
	seeds, err := os.ReadDir(mineStateCorpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range seeds {
		if e.Name() == "v2_k-medoids" {
			continue
		}
		if s, err := UnmarshalMineState(corpusSeed(t, e.Name())); err == nil {
			t.Errorf("seed %s decoded to %+v", e.Name(), s)
		}
	}
	for _, s := range []*MineState{{spec: MineSpec{Algorithm: 99}, kmed: &mining.KMedoidsResult{}}, {spec: MineSpec{Algorithm: MineKMedoids}}} {
		if blob, err := MarshalMineState(s); blob != nil || err != nil {
			t.Errorf("a state without a k-medoids warm start encoded to %x, %v", blob, err)
		}
	}
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzUnmarshalMineState checks the decoder on arbitrary bytes: it
// never panics; it allocates at most 1 MiB plus 64 bytes per input
// byte; an accepted state is a k-medoids warm start, and re-encodes and
// decodes to a deep-equal state; and an accepted state over at most 32
// rows, handed to MineIncremental under its own spec with a prepared
// log of n+4 queries, yields a result or an error, never a panic. A
// result's cost is the distance sum of its own assignment.
func FuzzUnmarshalMineState(f *testing.F) {
	p, err := NewProvider(MeasureToken)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *MineState
		var err error
		if got, bound := allocatedBy(func() { s, err = UnmarshalMineState(data) }), uint64(1<<20+64*len(data)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		if s.spec.Algorithm != MineKMedoids || s.kmed == nil {
			t.Fatalf("%q decoded to a state without a k-medoids warm start: %+v", data, s)
		}
		blob, err := MarshalMineState(s)
		if err != nil {
			t.Fatalf("re-encoding an accepted state: %v", err)
		}
		back, err := UnmarshalMineState(blob)
		if err != nil {
			t.Fatalf("decoding the re-encoded %x: %v", blob, err)
		}
		if !sameState(s, back) {
			t.Fatalf("%q re-decodes to %+v, want %+v", data, back, s)
		}
		if s.n > 32 {
			return
		}
		log := make([]string, s.n+4)
		for i := range log {
			log[i] = fmt.Sprintf("SELECT c%d FROM t%d", i%5, i%3)
		}
		ctx := context.Background()
		pl, err := p.Prepare(ctx, log)
		if err != nil {
			t.Fatal(err)
		}
		// An error is fine (the spec may not fit the log); a panic is not.
		res, _, err := p.MineIncremental(ctx, pl, s, s.spec)
		if err != nil {
			return
		}
		// Bits compare, so a NaN cost equals itself.
		if got, want := res.Clusters.Cost, assignCost(res.Matrix, res.Clusters); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("k-medoids served cost %v, its assignment costs %v", got, want)
		}
	})
}

// TestGenerateMineStateCorpus rewrites FuzzUnmarshalMineState's seed
// corpus when RUN_GEN_FIXTURES is set: the k-medoids state from the
// real encoder, the retired v1 fixtures, and the hostile cases above.
// It writes no seed the encoder can no longer produce; those stay as
// the files an earlier encoder wrote. Normal test runs skip it.
func TestGenerateMineStateCorpus(t *testing.T) {
	if os.Getenv("RUN_GEN_FIXTURES") == "" {
		t.Skip("set RUN_GEN_FIXTURES=1 to regenerate the fuzz seed corpus")
	}
	ctx := context.Background()
	p, base, _ := prepareFixture(t)
	seeds := hostileMineStates(t)
	for _, spec := range fixtureSpecs {
		var err error
		if seeds["v1_"+spec.Algorithm.String()], err = os.ReadFile(filepath.Join(v1FixtureDir, spec.Algorithm.String()+".json")); err != nil {
			t.Fatal(err)
		}
		if spec.Algorithm != MineKMedoids {
			continue
		}
		_, state, err := p.MineIncremental(ctx, base, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		if seeds["v2_"+spec.Algorithm.String()], err = MarshalMineState(state); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(mineStateCorpus, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, blob := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)
		if err := os.WriteFile(filepath.Join(mineStateCorpus, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
