package dpe

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
// a NaN parameter or cost equals itself. Whether a state was decoded is
// not part of it.
func sameState(a, b *MineState) bool {
	split := func(s *MineState) ([4]uint64, MineState) {
		rest := *s
		rest.decoded = false
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
// of every algorithm: the blob is deterministic and carries everything
// but the matrix, and the decoded state passes its checks and
// warm-starts to the same result as the in-memory one after building
// the whole 14-row matrix (91 pairs).
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

			blob, _ := MarshalMineState(state)
			restored, _ := UnmarshalMineState(blob)
			got, _, err := p.MineIncremental(ctx, full, restored, spec)
			if err != nil {
				t.Fatal(err)
			}
			st := got.Incremental
			wantPairs := int64(14 * 13 / 2)
			if spec.Algorithm == MineApriori {
				wantPairs = 0
			}
			if !st.Warm || st.ColdFallback || st.PairsComputed != wantPairs {
				t.Errorf("restored warm run: %+v, want warm with %d pairs", st, wantPairs)
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

// TestMineSpecCodecCoversEveryField sets every MineSpec field non-zero
// by reflection and round-trips it, so a field added to MineSpec
// without a codec change fails here.
func TestMineSpecCodecCoversEveryField(t *testing.T) {
	var spec MineSpec
	v := reflect.ValueOf(&spec).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeOf(MiningAlgorithm(0)):
			f.SetInt(int64(MineApriori))
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
	blob, err := MarshalMineState(&MineState{spec: spec})
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
// under spec, then the presence flags and raw body bytes.
func v2Blob(t *testing.T, spec MineSpec, n uint64, flags byte, body ...[]byte) []byte {
	t.Helper()
	head, err := MarshalMineState(&MineState{spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	b := binary.AppendUvarint(head[:len(head)-2], n) // drop n=0 and the flags
	b = append(b, flags)
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
// reason. The fuzz corpus seeds from them too.
func hostileMineStates(t *testing.T) map[string][]byte {
	dbscan := MineSpec{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 2}
	kmed := MineSpec{Algorithm: MineKMedoids, K: 1}
	apriori := MineSpec{Algorithm: MineApriori, MinSupport: 1, MaxLen: 2}
	cost := make([]byte, 8)
	valid := v2Blob(t, dbscan, 3, mineHasGraph, uv(3, 0, 1, 0, 0))
	// The byte before n and the flags is the retired approximate flag,
	// which must be 0.
	approx1 := v2Blob(t, dbscan, 0, 0)
	approx1[len(approx1)-3] = 1
	approx2 := v2Blob(t, dbscan, 0, 0)
	approx2[len(approx2)-3] = 2
	parentResult, err := os.ReadFile(parentResultState)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"bad_magic":           []byte("XMS\x02"),
		"unknown_version":     append([]byte("DMS"), 3),
		"v1_unknown_version":  []byte(`{"v":3,"n":0}`),
		"v1_negative_n":       []byte(`{"v":1,"n":-1}`),
		"v1_one_way_edge":     []byte(`{"v":1,"spec":{"Algorithm":"dbscan"},"n":2,"adj":[[1],[]]}`),
		"v1_short_matrix":     []byte(`{"v":1,"n":2,"matrix":[[0,1],[1]]}`),
		"v1_unsorted_counts":  []byte(`{"v":1,"spec":{"Algorithm":"apriori"},"n":1,"counts":[{"k":"b","c":1},{"k":"a","c":1}]}`),
		"unknown_algorithm":   append(append([]byte("DMS\x02"), sv(99)...), valid[5:]...),
		"approximate_flag_1":  approx1,
		"approximate_flag_2":  approx2,
		"unknown_section":     v2Blob(t, dbscan, 0, 1<<7),
		"n_overflows_int":     v2Blob(t, dbscan, math.MaxUint64, 0),
		"n_2pow62_graph":      v2Blob(t, dbscan, 1<<62, mineHasGraph, uv(1<<62)),
		"graph_rows_past_end": v2Blob(t, dbscan, 1000, mineHasGraph, uv(1000, 0, 0)),
		"graph_rows_not_n":    v2Blob(t, dbscan, 3, mineHasGraph, uv(2, 0, 0)),
		"graph_self_loop":     v2Blob(t, dbscan, 3, mineHasGraph, uv(3, 0, 1, 1, 0)),
		"graph_out_of_range":  v2Blob(t, dbscan, 3, mineHasGraph, uv(3, 0, 1, 2, 0)),
		"graph_repeat":        v2Blob(t, dbscan, 3, mineHasGraph, uv(3, 0, 0, 2, 0, 0)),
		"labels_not_n":        v2Blob(t, dbscan, 3, mineHasLabels, uv(2), sv(0, 0)),
		"labels_empty":        v2Blob(t, dbscan, 3, mineHasLabels, uv(0)),
		"assign_not_n":        v2Blob(t, kmed, 3, mineHasKMedoids, uv(1), sv(0), uv(2), sv(0, 0), cost, sv(1)),
		"assign_out_of_range": v2Blob(t, kmed, 2, mineHasKMedoids, uv(1), sv(0), uv(2), sv(0, 1), cost, sv(1)),
		"medoids_descending":  v2Blob(t, kmed, 2, mineHasKMedoids, uv(2), sv(1, 0), uv(2), sv(0, 1), cost, sv(1)),
		"medoid_out_of_range": v2Blob(t, kmed, 2, mineHasKMedoids, uv(1), sv(2), uv(2), sv(0, 0), cost, sv(1)),
		"counts_past_end":     v2Blob(t, apriori, 1, mineHasCounts, uv(1<<40)),
		"counts_unsorted":     v2Blob(t, apriori, 1, mineHasCounts, uv(2, 1), []byte("b"), sv(1), uv(1), []byte("a"), sv(1)),
		"counts_duplicate":    v2Blob(t, apriori, 1, mineHasCounts, uv(2, 1), []byte("a"), sv(1), uv(1), []byte("a"), sv(1)),
		"counts_empty_key":    v2Blob(t, apriori, 1, mineHasCounts, uv(1, 0), sv(1)),
		"counts_empty_item":   v2Blob(t, apriori, 1, mineHasCounts, uv(1, 2), []byte("a\x00"), sv(1)),
		"parent_result_state": parentResult,
		"truncated_float":     v2Blob(t, kmed, 1, mineHasKMedoids, uv(1), sv(0), uv(1), sv(0), cost[:3]),
		"trailing_byte":       append(valid, 0),
	}
}

// forgedMineStates are blobs that decode, as each is well formed, but
// do not fit the log they claim: states mined over the fixture log's
// first 9 queries under fixtureSpecs' DBSCAN and apriori specs, then
// given one more graph edge, 0–4, which lies outside eps, or every
// apriori count raised by 5. Only a check against the log tells them
// from honest states. The fuzz corpus seeds from them too.
func forgedMineStates(t *testing.T) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	p, base, _ := prepareFixture(t)
	forge := func(spec MineSpec, edit func(*MineState)) []byte {
		_, s, err := p.MineIncremental(ctx, base, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		edit(s)
		blob, err := MarshalMineState(s)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	return map[string][]byte{
		"forged_dbscan_edge": forge(fixtureSpecs[1], func(s *MineState) {
			for _, e := range [][2]int{{0, 4}, {4, 0}} {
				row := s.adj[e[0]]
				if slices.Contains(row, e[1]) {
					t.Fatalf("the fixture graph already has edge %d-%d", e[0], e[1])
				}
				s.adj[e[0]] = append(slices.Clone(row), e[1])
				slices.Sort(s.adj[e[0]])
			}
		}),
		"forged_apriori_counts": forge(fixtureSpecs[5], func(s *MineState) {
			for k := range s.counts {
				s.counts[k] += 5
			}
		}),
	}
}

func TestUnmarshalMineStateRejects(t *testing.T) {
	dbscan := MineSpec{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 2}
	if _, err := UnmarshalMineState(v2Blob(t, dbscan, 3, mineHasGraph, uv(3, 0, 1, 0, 0))); err != nil {
		t.Fatalf("the valid base of the hostile cases is rejected: %v", err)
	}
	for name, blob := range hostileMineStates(t) {
		if s, err := UnmarshalMineState(blob); err == nil {
			t.Errorf("%s: %x decoded to %+v", name, blob, s)
		}
	}
	if _, err := MarshalMineState(&MineState{spec: MineSpec{Algorithm: 99}}); err == nil {
		t.Error("a state under an unknown algorithm encoded")
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
// byte; an accepted state re-encodes and decodes to a deep-equal state;
// and an accepted state over at most 32 rows, handed to MineIncremental
// under its own spec with a prepared log of n+4 queries, yields a
// result or an error, never a panic. A result equals what the checks
// guard: a k-medoids cost is the distance sum of its own assignment,
// and DBSCAN labels and apriori itemsets equal a cold mine's.
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
		if res.Clusters != nil {
			// Bits compare, so a NaN cost equals itself.
			if got, want := res.Clusters.Cost, assignCost(res.Matrix, res.Clusters); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k-medoids served cost %v, its assignment costs %v", got, want)
			}
		}
		if a := s.spec.Algorithm; a == MineDBSCAN || a == MineApriori {
			cold, err := p.MinePrepared(ctx, pl, s.spec)
			if err != nil {
				t.Fatalf("warm %s ran, cold failed: %v", a, err)
			}
			if !slices.Equal(res.Labels, cold.Labels) || !mining.EqualItemsets(res.Itemsets, cold.Itemsets) {
				t.Fatalf("warm %s served labels %v and itemsets %v, cold %v and %v", a, res.Labels, res.Itemsets, cold.Labels, cold.Itemsets)
			}
		}
	})
}

// TestGenerateMineStateCorpus rewrites FuzzUnmarshalMineState's seed
// corpus when RUN_GEN_FIXTURES is set: v2 blobs of every algorithm from
// the real encoder, the retired v1 fixtures, and the hostile and forged
// cases above. Normal test runs skip it.
func TestGenerateMineStateCorpus(t *testing.T) {
	if os.Getenv("RUN_GEN_FIXTURES") == "" {
		t.Skip("set RUN_GEN_FIXTURES=1 to regenerate the fuzz seed corpus")
	}
	ctx := context.Background()
	p, base, _ := prepareFixture(t)
	seeds := hostileMineStates(t)
	maps.Copy(seeds, forgedMineStates(t))
	for _, spec := range fixtureSpecs {
		_, state, err := p.MineIncremental(ctx, base, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		if seeds["v2_"+spec.Algorithm.String()], err = MarshalMineState(state); err != nil {
			t.Fatal(err)
		}
		if seeds["v1_"+spec.Algorithm.String()], err = os.ReadFile(filepath.Join(v1FixtureDir, spec.Algorithm.String()+".json")); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshalMineState")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, blob := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
