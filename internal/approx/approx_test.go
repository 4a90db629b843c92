package approx

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randSetPair builds two element-hash sets with a controlled overlap so
// the exact Jaccard similarity is known by construction.
func randSetPair(rng *rand.Rand, shared, onlyA, onlyB int) (a, b []uint64, jaccard float64) {
	draw := func() uint64 { return rng.Uint64() | 1 }
	for i := 0; i < shared; i++ {
		v := draw()
		a, b = append(a, v), append(b, v)
	}
	for i := 0; i < onlyA; i++ {
		a = append(a, draw())
	}
	for i := 0; i < onlyB; i++ {
		b = append(b, draw())
	}
	union := shared + onlyA + onlyB
	if union == 0 {
		return a, b, 1
	}
	return a, b, float64(shared) / float64(union)
}

// TestMinHashConvergesToJaccard is the property test of satellite 3:
// across random workloads and every seeded family size, the signature
// similarity estimate stays within the MinHash variance envelope of
// the exact Jaccard similarity, and the error shrinks as the family
// grows. Deterministic seeds keep the assertion stable.
func TestMinHashConvergesToJaccard(t *testing.T) {
	for _, hashes := range []int{64, 128, 256, 512} {
		p := Params{Hashes: hashes, Bands: hashes / 4, Seed: 7}
		rng := rand.New(rand.NewSource(int64(hashes)))
		var sumAbs, worst float64
		const pairs = 200
		for i := 0; i < pairs; i++ {
			shared := rng.Intn(30)
			ea, eb, exact := randSetPair(rng, shared, rng.Intn(30), rng.Intn(30))
			x, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			x.AddSet(ea)
			x.AddSet(eb)
			est := EstimateSimilarity(x.Signature(0), x.Signature(1))
			diff := math.Abs(est - exact)
			sumAbs += diff
			if diff > worst {
				worst = diff
			}
		}
		// Per-pair: 6 standard deviations of the H-hash estimator
		// (σ ≤ 0.5/√H). Mean absolute error: well under one σ.
		sigma := 0.5 / math.Sqrt(float64(hashes))
		if worst > 6*sigma {
			t.Errorf("H=%d: worst |est-exact| = %.4f > %.4f", hashes, worst, 6*sigma)
		}
		if mean := sumAbs / pairs; mean > sigma {
			t.Errorf("H=%d: mean |est-exact| = %.4f > %.4f", hashes, mean, sigma)
		}
	}
}

// buildWorkload makes n random element-hash sets with enough shared
// structure that buckets actually collide.
func buildWorkload(rng *rand.Rand, n int) [][]uint64 {
	vocab := make([]uint64, 40)
	for i := range vocab {
		vocab[i] = rng.Uint64()
	}
	sets := make([][]uint64, n)
	for i := range sets {
		m := 3 + rng.Intn(12)
		seen := map[uint64]bool{}
		for len(seen) < m {
			seen[vocab[rng.Intn(len(vocab))]] = true
		}
		for v := range seen {
			sets[i] = append(sets[i], v)
		}
	}
	return sets
}

// TestAddEquivalentToRebuild pins the incremental contract (mirroring
// the Append ≡ DistanceMatrix pinning style): building an index all at
// once, and querying a prefix index before adding the suffix, produce
// identical signatures and candidates — for every split point.
func TestAddEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 24
	sets := buildWorkload(rng, n)
	full, err := New(Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		full.AddSet(s)
	}
	for split := 0; split <= n; split += 6 {
		ext, err := New(Params{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sets[:split] {
			ext.AddSet(s)
			ext.Candidates(i)
		}
		for _, s := range sets[split:] {
			ext.AddSet(s)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(full.Signature(i), ext.Signature(i)) {
				t.Fatalf("split %d: signature %d differs", split, i)
			}
			if !reflect.DeepEqual(full.Candidates(i), ext.Candidates(i)) {
				t.Fatalf("split %d: candidates of %d differ", split, i)
			}
		}
	}
}

// TestEmptySets pins the empty-set convention: two empty sets sign
// identically (estimated similarity 1, matching the exact metrics'
// Jaccard(∅, ∅) = 0 distance) and become mutual candidates.
func TestEmptySets(t *testing.T) {
	x, err := New(Params{})
	if err != nil {
		t.Fatal(err)
	}
	x.AddSet(nil)
	x.AddSet([]uint64{1, 2, 3})
	x.AddSet(nil)
	if got := EstimateSimilarity(x.Signature(0), x.Signature(2)); got != 1 {
		t.Fatalf("empty-vs-empty similarity = %v, want 1", got)
	}
	found := false
	for _, c := range x.Candidates(0) {
		if c == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("empty sets are not mutual candidates")
	}
}

// TestSeedChangesFamily pins that the seed really derives the family:
// same seed → identical signatures, different seed → different ones.
func TestSeedChangesFamily(t *testing.T) {
	elems := []uint64{10, 20, 30, 40}
	a, _ := New(Params{Seed: 1})
	b, _ := New(Params{Seed: 1})
	c, _ := New(Params{Seed: 2})
	for _, x := range []*Index{a, b, c} {
		x.AddSet(elems)
	}
	if !reflect.DeepEqual(a.Signature(0), b.Signature(0)) {
		t.Fatal("same seed produced different signatures")
	}
	if reflect.DeepEqual(a.Signature(0), c.Signature(0)) {
		t.Fatal("different seeds produced identical signatures")
	}
}

// TestParamsValidation pins the configuration error paths.
func TestParamsValidation(t *testing.T) {
	if _, err := New(Params{Hashes: 100, Bands: 48}); err == nil {
		t.Fatal("bands not dividing hashes must be rejected")
	}
	if _, err := New(Params{Hashes: -4}); err == nil {
		t.Fatal("negative hashes must be rejected")
	}
	x, err := New(Params{})
	if err != nil {
		t.Fatal(err)
	}
	p := x.Params()
	if p.Hashes != DefaultHashes || p.Bands != DefaultBands || p.Seed != DefaultSeed {
		t.Fatalf("defaults not applied: %+v", p)
	}
}
