package distance

import (
	"math/bits"
	"sort"

	"repro/internal/sqlfeature"
)

// This file is the interned hot-path representation of the set-based
// prepared states. The per-pair cost of the old representation — one
// map[K]bool probe per element of both sets, hashing strings on every
// probe — dominated every matrix build. Interning replaces it: a
// per-prepared-state dictionary assigns each distinct element a dense
// uint32 id at Prepare/Extend time (paying the hashing once per
// element instead of once per pair), and each query's element set
// becomes a packed []uint64 bitset, so one pair costs a popcount-AND
// sweep over words. The distance math is unchanged — intersection and
// union are the same integers, so Jaccard comes out bit-identical to
// the map kernel (MapKernel pins this in tests and benchmarks).

// dict is the per-prepared-state interning dictionary: element → dense
// id, plus the reverse table. Ids are assigned in first-occurrence
// order, which is deterministic because every caller interns each
// query's elements in sorted order — so a Prepare over a whole log and
// a Prepare-then-Extend over its split grow identical dictionaries, and
// snapshots marshal to identical bytes.
type dict[K comparable] struct {
	index map[K]uint32
	elems []K
}

func newDict[K comparable]() *dict[K] {
	return &dict[K]{index: make(map[K]uint32)}
}

// intern returns k's dense id, assigning the next one on first sight.
func (d *dict[K]) intern(k K) uint32 {
	if id, ok := d.index[k]; ok {
		return id
	}
	id := uint32(len(d.elems))
	d.index[k] = id
	d.elems = append(d.elems, k)
	return id
}

// clone deep-copies the dictionary. Extend works on a clone so the
// previous prepared state stays immutable (the Metric.Extend contract)
// even though the new state keeps interning into the same id space.
func (d *dict[K]) clone() *dict[K] {
	out := &dict[K]{
		index: make(map[K]uint32, len(d.index)),
		elems: append([]K(nil), d.elems...),
	}
	for k, id := range d.index {
		out.index[k] = id
	}
	return out
}

// --- packed bitsets over dense ids ---

const wordBits = 64

// bitsetSet returns words with bit id set, growing as needed. Bitsets
// are sized to the highest id they contain, not the dictionary — old
// queries' bitsets stay short as the dictionary grows under appends.
func bitsetSet(words []uint64, id uint32) []uint64 {
	w := int(id) / wordBits
	for len(words) <= w {
		words = append(words, 0)
	}
	words[w] |= 1 << (uint(id) % wordBits)
	return words
}

// bitsetAndCount returns |a ∩ b|: popcount of the word-wise AND over
// the shared prefix (bits past either set's last word are absent from
// it, so they cannot intersect).
func bitsetAndCount(a, b []uint64) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// appendBitsetIDs appends the set ids in ascending order.
func appendBitsetIDs(dst []uint32, words []uint64) []uint32 {
	for w, word := range words {
		base := uint32(w * wordBits)
		for word != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// internedPrepared is the hot-path prepared state of the set-based
// metrics (token, structure, result): one shared interning dictionary
// and one packed bitset per query. Distance is a popcount-AND sweep —
// no map probes, no string hashing, zero allocations per pair.
type internedPrepared[K comparable] struct {
	dict  *dict[K]
	sets  [][]uint64
	cards []int // popcount of sets[i], precomputed
}

func newInternedPrepared[K comparable](nHint int) *internedPrepared[K] {
	return &internedPrepared[K]{
		dict:  newDict[K](),
		sets:  make([][]uint64, 0, nHint),
		cards: make([]int, 0, nHint),
	}
}

// addSet interns one query's elements (already sorted and de-duplicated
// by the caller — sorted order is what keeps dictionary growth
// deterministic) and appends its bitset.
func (p *internedPrepared[K]) addSet(elems []K) {
	var words []uint64
	for _, k := range elems {
		words = bitsetSet(words, p.dict.intern(k))
	}
	p.sets = append(p.sets, words)
	p.cards = append(p.cards, len(elems))
}

// extendFrom initializes p as a growable copy of prev: the dictionary
// is cloned, the per-query bitsets are shared (they are immutable).
func (p *internedPrepared[K]) extendFrom(prev *internedPrepared[K], extra int) {
	p.dict = prev.dict.clone()
	p.sets = make([][]uint64, len(prev.sets), len(prev.sets)+extra)
	copy(p.sets, prev.sets)
	p.cards = make([]int, len(prev.cards), len(prev.cards)+extra)
	copy(p.cards, prev.cards)
}

func (p *internedPrepared[K]) Len() int { return len(p.sets) }

// Distance is the bitset Jaccard kernel: |a∩b| by popcount-AND,
// |a∪b| = |a| + |b| − |a∩b| from the precomputed cardinalities. The
// floating-point expression is exactly the map kernel's, so the result
// is bit-identical.
func (p *internedPrepared[K]) Distance(i, j int) (float64, error) {
	inter := bitsetAndCount(p.sets[i], p.sets[j])
	union := p.cards[i] + p.cards[j] - inter
	if union == 0 {
		return 0, nil
	}
	return 1 - float64(inter)/float64(union), nil
}

// AppendElementHashes implements SetSource by hashing each element of
// query i's set when asked: a bitset sweep plus one elementHash per
// element, so Prepare and Extend pay nothing for a hash only LSH
// signing reads.
func (p *internedPrepared[K]) AppendElementHashes(dst []uint64, i int) []uint64 {
	elems := p.dict.elems
	for w, word := range p.sets[i] {
		base := w * wordBits
		for word != 0 {
			dst = append(dst, elementHash(any(elems[base+bits.TrailingZeros64(word)])))
			word &= word - 1
		}
	}
	return dst
}

// AppendItems implements ItemSource: the dictionary's reverse table
// holds every element's payload, so rendering a transaction is a
// bitset sweep plus table lookups.
func (p *internedPrepared[K]) AppendItems(dst []string, i int) []string {
	elems := p.dict.elems
	for w, word := range p.sets[i] {
		base := w * wordBits
		for word != 0 {
			dst = append(dst, itemString(any(elems[base+bits.TrailingZeros64(word)])))
			word &= word - 1
		}
	}
	return dst
}

// itemString renders one set element as its canonical item text —
// the same rendering experiment E6 uses to build transactions.
func itemString(k any) string {
	switch v := k.(type) {
	case string:
		return v
	case sqlfeature.Feature:
		return v.String()
	default:
		// Unreachable for the built-in metrics.
		return ""
	}
}

// SizeBytes implements Sizer. Interning shrinks the real footprint —
// each distinct element's payload is held once in the dictionary
// instead of once per query that contains it — and the estimate
// reflects that: dictionary entries at their keySize plus map/table
// overhead, then one word-packed bitset per query.
func (p *internedPrepared[K]) SizeBytes() int64 {
	total := int64(64)
	for _, k := range p.dict.elems {
		// Map entry and reverse-table slot at a flat 32 bytes, a
		// deliberate overestimate held fixed so that cache admission
		// and eviction stay put.
		total += keySize(any(k)) + 32
	}
	for _, words := range p.sets {
		total += 32 + int64(len(words))*8
	}
	return total
}

// sortedStrings returns the keys of a string set in sorted order.
func sortedStrings(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortedFeatures returns the features of a set sorted by featureLess.
func sortedFeatures(set map[sqlfeature.Feature]bool) []sqlfeature.Feature {
	out := make([]sqlfeature.Feature, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return featureLess(out[i], out[j]) })
	return out
}

// featureLess orders features by (clause, item) — the canonical order
// the snapshot codec always used.
func featureLess(a, b sqlfeature.Feature) bool {
	if a.Clause != b.Clause {
		return a.Clause < b.Clause
	}
	return a.Item < b.Item
}
