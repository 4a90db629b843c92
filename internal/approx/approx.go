// Package approx is a MinHash/LSH candidate-generation layer: per-query
// MinHash signatures computed from the same precomputed sets the exact
// metrics use (the distance.SetSource seam), banded into an LSH index
// whose buckets yield candidate neighbors without touching the matrix
// triangle.
//
// Nothing in the provider or the service serves from it: Neighbors
// answers exactly from one matrix row, which costs less than the
// candidate lookup on every workload shape the benchmark runs, because
// at the default banding nearly every pair collides. The package
// remains only because the benchmark module (perfbench) builds an index
// and replays Candidates in its traced runs.
//
// Everything is deterministic: the hash family is derived from a seed,
// and signatures depend only on the element hashes (not map iteration
// order — min is order-independent).
package approx

import (
	"fmt"
	"math"
	"sort"
)

// Defaults for Params. 64 hashes at 32 bands of 2 rows puts the LSH
// S-curve threshold near (1/32)^(1/2) ≈ 0.18 similarity — low enough
// that a query's true top-K neighbors collide with high probability
// even on workloads whose logs share a schema (where neighbor
// similarities sit in the 0.2–0.4 range), while genuinely unrelated
// pairs still miss every band. Steeper curves (4-row bands) were
// measured to drop top-10 recall below 0.85 on the benchmark workload;
// 1-row bands admit nearly the full pair triangle.
const (
	DefaultHashes = 64
	DefaultBands  = 32
	DefaultSeed   = 0x1cde2018
)

// Params fixes a MinHash/LSH configuration. Two indexes over the same
// sets agree bucket-for-bucket iff their Params are equal — the seed
// derives the entire hash family.
type Params struct {
	// Hashes is the signature length. 0 means DefaultHashes.
	Hashes int
	// Bands is the LSH band count; it must divide Hashes. 0 means
	// DefaultBands.
	Bands int
	// Seed derives the hash family. 0 means DefaultSeed.
	Seed uint64
}

// withDefaults resolves zero fields.
func (p Params) withDefaults() Params {
	if p.Hashes == 0 {
		p.Hashes = DefaultHashes
	}
	if p.Bands == 0 {
		p.Bands = DefaultBands
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	return p
}

// validate rejects unusable configurations.
func (p Params) validate() error {
	if p.Hashes <= 0 {
		return fmt.Errorf("approx: hashes %d must be positive", p.Hashes)
	}
	if p.Bands <= 0 || p.Hashes%p.Bands != 0 {
		return fmt.Errorf("approx: bands %d must be positive and divide hashes %d", p.Bands, p.Hashes)
	}
	return nil
}

// splitmix64 is the standard 64-bit mix; it turns a counter into a
// high-quality stream, which is all the hash-family derivation needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// family is the seeded hash family: position k applies
// h_k(x) = a_k·x + b_k over uint64 wraparound, with a_k forced odd so
// the map is a bijection.
type family struct {
	a, b []uint64
}

func newFamily(p Params) family {
	f := family{a: make([]uint64, p.Hashes), b: make([]uint64, p.Hashes)}
	for k := 0; k < p.Hashes; k++ {
		f.a[k] = splitmix64(p.Seed+uint64(2*k)) | 1
		f.b[k] = splitmix64(p.Seed + uint64(2*k+1))
	}
	return f
}

// emptySig is the signature value of positions no element reached: the
// empty set signs as all-max, so two empty sets estimate similarity 1 —
// consistent with the convention Jaccard(∅, ∅) = 0 distance the exact
// metrics use. Re-ranking with the exact metric makes the convention
// moot for results.
const emptySig = math.MaxUint64

// Index is the in-memory LSH structure: one signature per query plus
// band→bucket membership. Add is incremental, and the whole structure
// is deterministic in (Params, element hashes, insertion order).
//
// An Index is not safe for concurrent mutation.
type Index struct {
	p    Params
	fam  family
	rows int // Hashes / Bands
	// sigs[i] is query i's signature, length p.Hashes.
	sigs [][]uint64
	// buckets[b] maps a band key to the queries whose band b signed
	// that key, in insertion order (ascending query index).
	buckets []map[uint64][]int32
}

// New builds an empty index. Zero Params fields take the defaults.
func New(p Params) (*Index, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	x := &Index{
		p:       p,
		fam:     newFamily(p),
		rows:    p.Hashes / p.Bands,
		buckets: make([]map[uint64][]int32, p.Bands),
	}
	for b := range x.buckets {
		x.buckets[b] = make(map[uint64][]int32)
	}
	return x, nil
}

// Params returns the index's resolved configuration.
func (x *Index) Params() Params { return x.p }

// Len is the number of indexed queries.
func (x *Index) Len() int { return len(x.sigs) }

// AddSet signs one query's element set (as stable element hashes, see
// distance.SetSource) and indexes it as query Len(). Incremental by
// construction: adding queries one at a time yields the same index as
// any other split of the same sequence.
func (x *Index) AddSet(elems []uint64) {
	sig := make([]uint64, x.p.Hashes)
	for k := range sig {
		sig[k] = emptySig
	}
	for _, e := range elems {
		for k := 0; k < x.p.Hashes; k++ {
			if h := x.fam.a[k]*e + x.fam.b[k]; h < sig[k] {
				sig[k] = h
			}
		}
	}
	i := int32(len(x.sigs))
	x.sigs = append(x.sigs, sig)
	for b := 0; b < x.p.Bands; b++ {
		key := bandKey(sig[b*x.rows : (b+1)*x.rows])
		x.buckets[b][key] = append(x.buckets[b][key], i)
	}
}

// bandKey collapses one band's rows into a bucket key (FNV-1a over the
// row bytes).
func bandKey(rows []uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range rows {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 0x100000001b3
		}
	}
	return h
}

// Signature returns query i's stored signature. Callers must not
// modify it.
func (x *Index) Signature(i int) []uint64 { return x.sigs[i] }

// EstimateSimilarity is the MinHash resemblance estimate between two
// signatures of equal length: the fraction of agreeing positions. It
// converges to the exact Jaccard similarity as the family grows (the
// property test pins the tolerance).
func EstimateSimilarity(a, b []uint64) float64 {
	eq := 0
	for k := range a {
		if a[k] == b[k] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// Candidates returns the queries sharing at least one band bucket with
// query i, sorted ascending, excluding i itself.
func (x *Index) Candidates(i int) []int {
	seen := make(map[int32]struct{})
	sig := x.sigs[i]
	for b := 0; b < x.p.Bands; b++ {
		key := bandKey(sig[b*x.rows : (b+1)*x.rows])
		for _, j := range x.buckets[b][key] {
			if int(j) != i {
				seen[j] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(seen))
	for j := range seen {
		out = append(out, int(j))
	}
	sort.Ints(out)
	return out
}
