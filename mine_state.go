package dpe

// MineState persistence: the codec behind the service's KindMining
// journal records and tenant bundles. Under Definition 1 the distance
// matrix, and every exact mining result over it, is a pure function of
// the prepared log, which is journaled beside the state. So a DBSCAN
// graph, apriori counts, or the labels of complete-link and outliers
// would only let a restarted server serve the answer a cold mine
// serves, after computing the same pairs; they are kept in memory and
// never persisted. Only a k-medoids warm start shapes the result and
// saves work after a restart, so it is the one state this codec writes.
// The format (version 2) is binary and leaves the matrix out:
// MineIncremental builds it on each warm use of a decoded state. A
// state is a cache: a blob in any other format or of any other
// algorithm, as older binaries wrote, fails to decode, and replay and
// import count it as skipped and mine cold on first use.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/binenc"
	"repro/internal/mining"
)

// A blob opens with mineStateMagic and a version byte.
var mineStateMagic = [3]byte{'D', 'M', 'S'}

const mineStateVersion = 2

// mineHasKMedoids is a v2 blob's sections byte. Older binaries set
// further bits for a DBSCAN graph, labels and apriori counts; this one
// reads only the k-medoids section.
const mineHasKMedoids byte = 1

// MarshalMineState serializes a mining state for persistence (format
// v2): the spec, n and the k-medoids warm start. Floats are IEEE-754
// bits, so every parameter and the k-medoids cost cross exactly. The
// matrix is left out. The encoding is deterministic: equal states give
// equal bytes. A state without a k-medoids warm start has nothing a
// cold mine of its log would not rebuild, so it encodes to no blob:
// nil and no error.
func MarshalMineState(s *MineState) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("dpe: nil mining state")
	}
	if s.spec.Algorithm != MineKMedoids || s.kmed == nil {
		return nil, nil
	}
	b := appendMineHeader(make([]byte, 0, 64), s.spec)
	b = binary.AppendUvarint(b, uint64(s.n))
	b = append(b, mineHasKMedoids)
	b = appendInts(b, s.kmed.Medoids)
	b = appendInts(b, s.kmed.Assign)
	b = binenc.AppendFloat(b, s.kmed.Cost)
	b = binary.AppendVarint(b, int64(s.kmed.Iterations))
	return b, nil
}

// appendMineHeader appends a v2 blob's magic, version and spec.
func appendMineHeader(b []byte, sp MineSpec) []byte {
	b = append(b, mineStateMagic[:]...)
	b = append(b, mineStateVersion)
	b = binary.AppendVarint(b, int64(sp.Algorithm))
	b = binary.AppendVarint(b, int64(sp.K))
	b = binenc.AppendFloat(b, sp.Eps)
	b = binary.AppendVarint(b, int64(sp.MinPts))
	b = binenc.AppendFloat(b, sp.P)
	b = binenc.AppendFloat(b, sp.D)
	b = binary.AppendVarint(b, int64(sp.Query))
	b = binary.AppendVarint(b, int64(sp.MinSupport))
	b = binary.AppendVarint(b, int64(sp.MaxLen))
	return append(b, 0) // retired flag, see UnmarshalMineState
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// UnmarshalMineState is the inverse of MarshalMineState. The state
// carries no matrix; MineIncremental builds it from the prepared log.
// A blob without the header, of another version, of another algorithm
// than k-medoids, with a NaN spec parameter (a spec that never equals
// itself warm-starts nothing), or with any sections byte but the
// k-medoids one is an error. Every count is checked against the bytes
// left before anything is allocated for it, and a state whose
// assignment does not cover exactly n rows, or whose indices leave
// their range, is rejected. What the bytes cannot show, that the
// assignment is the nearest-medoid one over the log, internal/mining
// checks when a warm run uses the state. Decoded states never hold
// empty non-nil slices, so re-encoding a decoded state and decoding it
// again gives a deep-equal state.
func UnmarshalMineState(data []byte) (*MineState, error) {
	if len(data) < len(mineStateMagic)+1 || !bytes.Equal(data[:len(mineStateMagic)], mineStateMagic[:]) {
		return nil, fmt.Errorf("dpe: mining state has no mining-state header")
	}
	if v := data[len(mineStateMagic)]; v != mineStateVersion {
		return nil, fmt.Errorf("dpe: unknown mining-state version %d", v)
	}
	r := binenc.NewReader(data[len(mineStateMagic)+1:])
	s := &MineState{}
	sp := &s.spec
	sp.Algorithm = MiningAlgorithm(r.Int())
	if r.Err() == nil && sp.Algorithm != MineKMedoids {
		r.Fail("a %s mining state is not persisted, only k-medoids states are", sp.Algorithm)
	}
	sp.K = r.Int()
	sp.Eps = r.Float()
	sp.MinPts = r.Int()
	sp.P = r.Float()
	sp.D = r.Float()
	if sp.hasNaN() {
		r.Fail("spec has a NaN parameter")
	}
	sp.Query = r.Int()
	sp.MinSupport = r.Int()
	sp.MaxLen = r.Int()
	// The byte after MaxLen was the spec's Approximate flag, which no
	// longer exists. The format keeps the byte: it is written as 0, and
	// any other value is rejected.
	if f := r.Byte(); f != 0 {
		r.Fail("retired approximate flag is %d, want 0", f)
	}
	if n := r.Uvarint(); n > math.MaxInt {
		r.Fail("row count %d overflows int", n)
	} else {
		s.n = int(n)
	}
	if sections := r.Byte(); r.Err() == nil && sections != mineHasKMedoids {
		r.Fail("sections %#x, want the k-medoids section %#x alone", sections, mineHasKMedoids)
	}
	s.kmed = &mining.KMedoidsResult{Medoids: readInts(r, -1)}
	s.kmed.Assign = readInts(r, s.n)
	s.kmed.Cost = r.Float()
	s.kmed.Iterations = r.Int()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dpe: decoding mining state: %w", err)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// readInts reads a varint list; want >= 0 demands that exact length.
func readInts(r *binenc.Reader, want int) []int {
	c := r.Count(1)
	if want >= 0 && r.Err() == nil && c != want {
		r.Fail("list of %d entries, want %d", c, want)
	}
	if r.Err() != nil || c == 0 {
		return nil
	}
	out := make([]int, c)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// check enforces what the warm path assumes of a decoded state beyond
// the n-row assignment the reader demands: the medoids are strictly
// ascending in [0,n), and each row is in a medoid's cluster.
func (s *MineState) check() error {
	n, kmed := s.n, s.kmed
	for c, m := range kmed.Medoids {
		if m < 0 || m >= n || c > 0 && m <= kmed.Medoids[c-1] {
			return fmt.Errorf("dpe: mining state medoids %v are not strictly ascending in [0,%d)", kmed.Medoids, n)
		}
	}
	for i, c := range kmed.Assign {
		if c < 0 || c >= len(kmed.Medoids) {
			return fmt.Errorf("dpe: mining state assigns row %d to cluster %d of %d", i, c, len(kmed.Medoids))
		}
	}
	return nil
}
