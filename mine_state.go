package dpe

// MineState persistence: the codec behind the service's KindMining
// journal records and tenant bundles. The format (version 2) is binary
// and leaves the distance matrix out. Under Definition 1 the matrix is
// a pure function of the prepared log, which is journaled beside the
// state, so MineIncremental builds it on each warm use of a decoded
// state instead of every append journaling n² floats. A state is a
// cache: a blob in any other format, such as the JSON version 1 that
// older binaries wrote, fails to decode, and replay and import count
// it as skipped and mine cold on first use.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/binenc"
	"repro/internal/mining"
)

// A blob opens with mineStateMagic and a version byte.
var mineStateMagic = [3]byte{'D', 'M', 'S'}

const mineStateVersion = 2

// Presence bits of a v2 blob's optional sections, in body order.
const (
	mineHasKMedoids byte = 1 << iota
	mineHasGraph
	mineHasLabels
	mineHasCounts
	mineHasAll = mineHasKMedoids | mineHasGraph | mineHasLabels | mineHasCounts
)

// MarshalMineState serializes a mining state for persistence (format
// v2): the spec, n, the k-medoids warm start, the DBSCAN eps-graph
// (each undirected edge once, as row i's neighbours j < i, delta-coded),
// the labels, and the apriori counts in ascending key order. Floats are
// IEEE-754 bits, so every parameter and the k-medoids cost cross
// exactly. The matrix is left out. The encoding is deterministic: equal
// states give equal bytes.
func MarshalMineState(s *MineState) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("dpe: nil mining state")
	}
	if _, err := s.spec.Algorithm.MarshalText(); err != nil {
		return nil, err
	}
	b := append(make([]byte, 0, 64), mineStateMagic[:]...)
	b = append(b, mineStateVersion)
	sp := s.spec
	b = binary.AppendVarint(b, int64(sp.Algorithm))
	b = binary.AppendVarint(b, int64(sp.K))
	b = binenc.AppendFloat(b, sp.Eps)
	b = binary.AppendVarint(b, int64(sp.MinPts))
	b = binenc.AppendFloat(b, sp.P)
	b = binenc.AppendFloat(b, sp.D)
	b = binary.AppendVarint(b, int64(sp.Query))
	b = binary.AppendVarint(b, int64(sp.MinSupport))
	b = binary.AppendVarint(b, int64(sp.MaxLen))
	b = append(b, 0) // retired flag, see UnmarshalMineState
	b = binary.AppendUvarint(b, uint64(s.n))

	var flags byte
	if s.kmed != nil {
		flags |= mineHasKMedoids
	}
	if s.adj != nil {
		flags |= mineHasGraph
	}
	if s.labels != nil {
		flags |= mineHasLabels
	}
	if s.counts != nil {
		flags |= mineHasCounts
	}
	b = append(b, flags)
	if s.kmed != nil {
		b = appendInts(b, s.kmed.Medoids)
		b = appendInts(b, s.kmed.Assign)
		b = binenc.AppendFloat(b, s.kmed.Cost)
		b = binary.AppendVarint(b, int64(s.kmed.Iterations))
	}
	if s.adj != nil {
		// Rows are ascending (DBSCANAppendGraph builds them so, and
		// decoding checks it), so row i's neighbours below i are
		// its prefix; the rows above i list the rest of its edges.
		b = binary.AppendUvarint(b, uint64(len(s.adj)))
		for i, row := range s.adj {
			lower := row[:sort.SearchInts(row, i)]
			b = binary.AppendUvarint(b, uint64(len(lower)))
			prev := 0
			for _, j := range lower {
				b = binary.AppendUvarint(b, uint64(j-prev))
				prev = j
			}
		}
	}
	if s.labels != nil {
		b = appendInts(b, s.labels)
	}
	if s.counts != nil {
		keys := make([]string, 0, len(s.counts))
		for k := range s.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = binenc.AppendString(b, k)
			b = binary.AppendVarint(b, int64(s.counts[k]))
		}
	}
	return b, nil
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
// A blob without the header, or of another version, is an error. Every
// count is checked against the bytes left before anything is allocated
// for it, and a state whose per-row structures do not cover exactly n
// rows, or whose indices leave their range, is rejected. What the
// bytes cannot show, that a DBSCAN graph or an apriori count table fits
// the log, internal/mining checks when a warm run uses the state.
// Decoded states never hold empty non-nil slices, so re-encoding a
// decoded state and decoding it again gives a deep-equal state.
func UnmarshalMineState(data []byte) (*MineState, error) {
	if len(data) < len(mineStateMagic)+1 || !bytes.Equal(data[:len(mineStateMagic)], mineStateMagic[:]) {
		return nil, fmt.Errorf("dpe: mining state has no mining-state header")
	}
	if v := data[len(mineStateMagic)]; v != mineStateVersion {
		return nil, fmt.Errorf("dpe: unknown mining-state version %d", v)
	}
	r := binenc.NewReader(data[len(mineStateMagic)+1:])
	s := &MineState{decoded: true}
	sp := &s.spec
	sp.Algorithm = MiningAlgorithm(r.Int())
	sp.K = r.Int()
	sp.Eps = r.Float()
	sp.MinPts = r.Int()
	sp.P = r.Float()
	sp.D = r.Float()
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
	flags := r.Byte()
	if flags&^mineHasAll != 0 {
		r.Fail("unknown sections %#x", flags&^mineHasAll)
	}
	if flags&mineHasKMedoids != 0 {
		s.kmed = &mining.KMedoidsResult{Medoids: readInts(r, -1)}
		s.kmed.Assign = readInts(r, s.n)
		s.kmed.Cost = r.Float()
		s.kmed.Iterations = r.Int()
	}
	if flags&mineHasGraph != 0 {
		s.adj = readGraph(r, s.n)
	}
	if flags&mineHasLabels != 0 {
		s.labels = readInts(r, s.n)
	}
	if flags&mineHasCounts != 0 {
		s.counts = readCounts(r)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dpe: decoding mining state: %w", err)
	}
	if _, err := sp.Algorithm.MarshalText(); err != nil {
		return nil, err
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

// readGraph reads the eps-graph of n rows and rebuilds both directions
// of every edge in ascending order, which is how DBSCANAppendGraph
// builds them. A first pass validates the rows and counts degrees, so
// the second, over the same bytes, cuts each row from one exact
// backing array. Rows without neighbours stay nil, as
// DBSCANAppendGraph leaves them.
func readGraph(r *binenc.Reader, n int) [][]int {
	if rows := r.Count(1); r.Err() == nil && rows != n {
		r.Fail("graph of %d rows, want %d", rows, n)
	}
	if r.Err() != nil || n == 0 {
		return nil
	}
	start := *r
	deg := make([]int, n)
	edges := 0
	readLowerEdges(r, n, func(i, j int) { deg[i]++; deg[j]++; edges++ })
	if r.Err() != nil {
		return nil
	}
	backing := make([]int, 2*edges)
	adj := make([][]int, n)
	for i, d := range deg {
		if d > 0 {
			adj[i], backing = backing[:0:d], backing[d:]
		}
	}
	*r = start
	readLowerEdges(r, n, func(i, j int) {
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	})
	return adj
}

// readLowerEdges walks the n stored rows, calling fn(i, j) for each
// neighbour j < i of row i in ascending order. Neighbours are
// delta-coded; a zero delta after the first repeats a neighbour.
func readLowerEdges(r *binenc.Reader, n int, fn func(i, j int)) {
	for i := 0; i < n && r.Err() == nil; i++ {
		c := r.Count(1)
		j := 0
		for k := 0; k < c && r.Err() == nil; k++ {
			d := r.Uvarint()
			switch {
			case r.Err() != nil:
			case k > 0 && d == 0:
				r.Fail("graph row %d repeats neighbour %d", i, j)
			case d == uint64(i-j):
				r.Fail("graph row %d lists itself", i)
			case d > uint64(i-j):
				r.Fail("graph row %d lists a neighbour above it", i)
			default:
				j += int(d)
				fn(i, j)
			}
		}
	}
}

// readCounts reads the apriori carried supports; keys must be strictly
// ascending, which is the order MarshalMineState writes them in.
func readCounts(r *binenc.Reader) map[string]int {
	c := r.Count(2) // each entry is at least a key length and a count
	if r.Err() != nil {
		return nil
	}
	out := make(map[string]int, c)
	prev := ""
	for i := 0; i < c && r.Err() == nil; i++ {
		k := r.Str()
		if i > 0 && k <= prev {
			r.Fail("count keys not strictly ascending at %q", k)
		}
		out[k] = r.Int()
		prev = k
	}
	return out
}

// check enforces what the warm paths assume of a decoded state: each
// per-row structure covers exactly n rows, indices stay in range, the
// k-medoids medoids are strictly ascending, every graph row is
// strictly ascending, free of self-loops, and mirrored by its
// neighbours' rows, and every apriori count key is one or more
// non-empty items joined by NUL. Older binaries keyed result tuples,
// which end in NUL, verbatim; such a state has an empty item and is
// rejected.
func (s *MineState) check() error {
	n := s.n
	if s.kmed != nil {
		for c, m := range s.kmed.Medoids {
			if m < 0 || m >= n || c > 0 && m <= s.kmed.Medoids[c-1] {
				return fmt.Errorf("dpe: mining state medoids %v are not strictly ascending in [0,%d)", s.kmed.Medoids, n)
			}
		}
		if len(s.kmed.Assign) != n {
			return fmt.Errorf("dpe: mining state assigns %d rows, want %d", len(s.kmed.Assign), n)
		}
		for i, c := range s.kmed.Assign {
			if c < 0 || c >= len(s.kmed.Medoids) {
				return fmt.Errorf("dpe: mining state assigns row %d to cluster %d of %d", i, c, len(s.kmed.Medoids))
			}
		}
	}
	if s.adj != nil {
		if len(s.adj) != n {
			return fmt.Errorf("dpe: mining state graph has %d rows, want %d", len(s.adj), n)
		}
		for i, row := range s.adj {
			for k, j := range row {
				switch {
				case j < 0 || j >= n:
					return fmt.Errorf("dpe: mining state graph row %d lists neighbour %d outside [0,%d)", i, j, n)
				case j == i:
					return fmt.Errorf("dpe: mining state graph row %d lists itself", i)
				case k > 0 && j <= row[k-1]:
					return fmt.Errorf("dpe: mining state graph row %d is not strictly ascending", i)
				}
				back := s.adj[j]
				if p := sort.SearchInts(back, i); p == len(back) || back[p] != i {
					return fmt.Errorf("dpe: mining state graph edge %d-%d is one-way", i, j)
				}
			}
		}
	}
	if s.labels != nil && len(s.labels) != n {
		return fmt.Errorf("dpe: mining state has %d labels for %d rows", len(s.labels), n)
	}
	for k := range s.counts {
		if k == "" || k[0] == 0 || k[len(k)-1] == 0 || strings.Contains(k, "\x00\x00") {
			return fmt.Errorf("dpe: mining state counts an empty item in %q", k)
		}
	}
	return nil
}
