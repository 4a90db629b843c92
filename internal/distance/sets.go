package distance

import (
	"hash/fnv"

	"repro/internal/sqlfeature"
)

// SetSource is the seam between the exact metrics and the MinHash/LSH
// index of internal/approx: it is implemented by prepared states whose
// characteristic is one element set per query compared by Jaccard
// distance — today the token, structure, and result measures. MinHash
// signatures are computed from the element hashes it exposes, which
// are derived from the same precomputed state the matrix build uses.
// Its only caller is dpe.Provider.BuildApproxIndex.
//
// The access-area measure deliberately does not implement SetSource:
// its distance is an interval-overlap mean, not a set resemblance, so
// MinHash estimates would be meaningless for it.
type SetSource interface {
	Prepared
	// AppendElementHashes appends query i's element hashes to dst and
	// returns the extended slice. Order is unspecified (MinHash is
	// order-independent), but the hash of any given element is stable
	// across processes, restarts, and appends.
	AppendElementHashes(dst []uint64, i int) []uint64
}

// ItemSource is the seam between the set-based prepared states and
// association-rule mining: it renders query i's element set as the
// canonical item strings of one Apriori transaction (the idiom of
// experiment E6 — features render via Feature.String, tokens and tuple
// keys are their own text). It is implemented by the same interned
// states that implement SetSource, so incremental mining rides the
// prepared state — and its snapshots, which persist the dictionary's
// element payloads — without re-parsing a single query.
//
// The access-area measure does not implement ItemSource: its prepared
// state holds per-attribute intervals, not an element set, so there is
// no transaction to mine.
type ItemSource interface {
	Prepared
	// AppendItems appends query i's items to dst and returns the
	// extended slice. Item strings are stable across processes,
	// restarts, and appends; order is unspecified (a transaction is a
	// set).
	AppendItems(dst []string, i int) []string
}

// elementHash maps one set element to a stable 64-bit hash: FNV-1a over
// a canonical byte encoding. Tokens and tuple keys hash their text;
// features hash clause and item with a separator no SQL token contains,
// so ("WHERE","a") and ("WHER","Ea") cannot collide. The hash is over
// element CONTENT, never the interned id — ids depend on insertion
// order and would break the cross-process stability contract above.
func elementHash(k any) uint64 {
	h := fnv.New64a()
	switch v := k.(type) {
	case string:
		h.Write([]byte(v))
	case sqlfeature.Feature:
		h.Write([]byte(v.Clause))
		h.Write([]byte{0x1f})
		h.Write([]byte(v.Item))
	default:
		// Unreachable for the built-in metrics; a zero hash keeps the
		// estimate degraded rather than wrong.
		return 0
	}
	return h.Sum64()
}
