package distance

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/accessarea"
	"repro/internal/sqlfeature"
	"repro/internal/value"
)

// Snapshotter is optionally implemented by metrics whose prepared state
// can be serialized and restored — the codec behind the service's
// persistent prepared-state snapshots. The contract is exactness:
// UnmarshalPrepared(MarshalPrepared(p)) must return a state whose
// Distance is entry-wise identical to p's, so a recovered cache serves
// the same matrices the pre-restart one did. All four built-in metrics
// implement it.
type Snapshotter interface {
	// MarshalPrepared serializes a prepared state produced by this
	// metric's Prepare or Extend. The encoding is deterministic: equal
	// states marshal to equal bytes.
	MarshalPrepared(p Prepared) ([]byte, error)
	// UnmarshalPrepared is the inverse of MarshalPrepared. It also
	// accepts this metric's legacy (pre-interning) payloads, so
	// journals written by older binaries replay into the current
	// representation.
	UnmarshalPrepared(data []byte) (Prepared, error)
}

// Snapshot framing: a 4-byte magic ("DPS" + version) and a payload tag,
// then the tag-specific body. All integers are varints; floats are
// 8-byte little-endian IEEE 754 bit patterns (exact round trip).
var snapshotMagic = [4]byte{'D', 'P', 'S', '1'}

// Payload tags version the body format. Tags 1 and 2 are the legacy
// map-era set encodings: no binary writes them anymore, but decoders
// keep accepting them so prepared-state journals recorded before the
// interned kernel replay unchanged. Tag 3 is unchanged across the
// interning refactor — its on-disk bytes are identical before and
// after. Tags 4 and 5 are the interned encodings (dictionary once,
// then delta-encoded id lists per query) that current binaries write.
const (
	snapStringSets       byte = 1 // legacy setPrepared[string]: token and result metrics
	snapFeatureSets      byte = 2 // legacy setPrepared[sqlfeature.Feature]: structure metric
	snapAccessArea       byte = 3 // aaPrepared: access-area metric
	snapInternedStrings  byte = 4 // internedPrepared[string]: token and result metrics
	snapInternedFeatures byte = 5 // internedPrepared[sqlfeature.Feature]: structure metric
)

// snapMaxTag is the highest payload tag this binary understands; a
// larger tag means the snapshot was written by a newer version.
const snapMaxTag = snapInternedFeatures

// snapWriter builds a snapshot buffer.
type snapWriter struct{ buf []byte }

func newSnapWriter(tag byte) *snapWriter {
	w := &snapWriter{buf: make([]byte, 0, 256)}
	w.buf = append(w.buf, snapshotMagic[:]...)
	w.buf = append(w.buf, tag)
	return w
}

func (w *snapWriter) uvarint(n uint64) { w.buf = binary.AppendUvarint(w.buf, n) }
func (w *snapWriter) varint(n int64)   { w.buf = binary.AppendVarint(w.buf, n) }
func (w *snapWriter) byteVal(b byte)   { w.buf = append(w.buf, b) }
func (w *snapWriter) float(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}
func (w *snapWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *snapWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// snapReader consumes a snapshot buffer, validating the frame.
type snapReader struct {
	buf []byte
	off int
}

// newSnapReader validates the magic and payload tag, returning the tag
// that matched so callers accepting several formats (current + legacy)
// can dispatch on it.
func newSnapReader(data []byte, wantTags ...byte) (*snapReader, byte, error) {
	if len(data) < len(snapshotMagic)+1 {
		return nil, 0, fmt.Errorf("distance: snapshot of %d bytes is shorter than its header", len(data))
	}
	for i, b := range snapshotMagic {
		if data[i] != b {
			return nil, 0, fmt.Errorf("distance: snapshot has bad magic %q", data[:len(snapshotMagic)])
		}
	}
	tag := data[len(snapshotMagic)]
	for _, want := range wantTags {
		if tag == want {
			return &snapReader{buf: data, off: len(snapshotMagic) + 1}, tag, nil
		}
	}
	if tag > snapMaxTag {
		return nil, 0, fmt.Errorf("distance: snapshot payload tag %d is newer than this binary supports (max %d); upgrade the binary or re-prepare the session", tag, snapMaxTag)
	}
	return nil, 0, fmt.Errorf("distance: snapshot payload tag %d, want one of %v (snapshot from a different measure?)", tag, wantTags)
}

func (r *snapReader) uvarint() (uint64, error) {
	n, sz := binary.Uvarint(r.buf[r.off:])
	if sz <= 0 {
		return 0, fmt.Errorf("distance: truncated snapshot varint at offset %d", r.off)
	}
	r.off += sz
	return n, nil
}

// count reads the length of a list whose items take at least minBytes
// each and rejects one the remaining bytes cannot hold, so a hostile
// count fails before anything is allocated for it.
func (r *snapReader) count(minBytes int) (uint64, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if left := len(r.buf) - r.off; n > uint64(left/minBytes) {
		return 0, fmt.Errorf("distance: snapshot count %d at offset %d exceeds the %d bytes left", n, r.off, left)
	}
	return n, nil
}

func (r *snapReader) varint() (int64, error) {
	n, sz := binary.Varint(r.buf[r.off:])
	if sz <= 0 {
		return 0, fmt.Errorf("distance: truncated snapshot varint at offset %d", r.off)
	}
	r.off += sz
	return n, nil
}

func (r *snapReader) byteVal() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("distance: truncated snapshot at offset %d", r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *snapReader) float() (float64, error) {
	if r.off+8 > len(r.buf) {
		return 0, fmt.Errorf("distance: truncated snapshot float at offset %d", r.off)
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return f, nil
}

func (r *snapReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.buf)-r.off) < n {
		return "", fmt.Errorf("distance: truncated snapshot string at offset %d", r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *snapReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.buf)-r.off) < n {
		return nil, fmt.Errorf("distance: truncated snapshot bytes at offset %d", r.off)
	}
	b := append([]byte(nil), r.buf[r.off:r.off+int(n)]...)
	r.off += int(n)
	return b, nil
}

func (r *snapReader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("distance: %d trailing snapshot bytes", len(r.buf)-r.off)
	}
	return nil
}

// --- interned set states (token, result, structure) ---

// writeInterned encodes an interned state: the dictionary once (in id
// order, so restore re-interns into identical ids), then each query as
// its cardinality followed by delta-encoded ascending element ids.
// writeElem serializes one dictionary element.
func writeInterned[K comparable](w *snapWriter, p *internedPrepared[K], writeElem func(*snapWriter, K)) {
	w.uvarint(uint64(len(p.dict.elems)))
	for _, k := range p.dict.elems {
		writeElem(w, k)
	}
	w.uvarint(uint64(len(p.sets)))
	var ids []uint32
	for _, words := range p.sets {
		ids = appendBitsetIDs(ids[:0], words)
		w.uvarint(uint64(len(ids)))
		prev := uint32(0)
		for _, id := range ids {
			w.uvarint(uint64(id - prev))
			prev = id
		}
	}
}

// readInterned decodes what writeInterned produced. Elements re-intern
// in stored (id) order, so the restored dictionary is identical to the
// marshaled one and a re-marshal yields the same bytes.
func readInterned[K comparable](r *snapReader, readElem func(*snapReader) (K, error)) (*internedPrepared[K], error) {
	nElems, err := r.count(1)
	if err != nil {
		return nil, err
	}
	out := newInternedPrepared[K](0)
	for i := uint64(0); i < nElems; i++ {
		k, err := readElem(r)
		if err != nil {
			return nil, err
		}
		if id := out.dict.intern(k); uint64(id) != i {
			return nil, fmt.Errorf("distance: snapshot dictionary has duplicate element at id %d", i)
		}
	}
	nSets, err := r.count(1)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nSets; i++ {
		card, err := r.count(1)
		if err != nil {
			return nil, err
		}
		var words []uint64
		id := uint32(0)
		for j := uint64(0); j < card; j++ {
			d, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if j > 0 && d == 0 {
				return nil, fmt.Errorf("distance: snapshot set %d has a duplicate element id", i)
			}
			id += uint32(d)
			if uint64(id) >= nElems {
				return nil, fmt.Errorf("distance: snapshot set %d references element id %d beyond dictionary size %d", i, id, nElems)
			}
			words = bitsetSet(words, id)
		}
		out.sets = append(out.sets, words)
		out.cards = append(out.cards, int(card))
	}
	return out, nil
}

// readLegacySets decodes the map-era set encoding (tags 1 and 2): per
// query, a sorted element list. Elements intern in stored order, which
// is the same sorted order Prepare uses, so the rebuilt dictionary —
// and therefore any re-marshal and any MinHash signature — matches a
// fresh Prepare of the same log exactly.
func readLegacySets[K comparable](r *snapReader, readElem func(*snapReader) (K, error)) (*internedPrepared[K], error) {
	n, err := r.count(1) // each set has at least its element count
	if err != nil {
		return nil, err
	}
	out := newInternedPrepared[K](int(n))
	elems := []K(nil)
	for i := uint64(0); i < n; i++ {
		k, err := r.count(1)
		if err != nil {
			return nil, err
		}
		elems = elems[:0]
		for j := uint64(0); j < k; j++ {
			e, err := readElem(r)
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		out.addSet(elems)
	}
	return out, nil
}

func writeStringElem(w *snapWriter, s string) { w.str(s) }

func readStringElem(r *snapReader) (string, error) { return r.str() }

func writeFeatureElem(w *snapWriter, f sqlfeature.Feature) {
	w.str(string(f.Clause))
	w.str(f.Item)
}

func readFeatureElem(r *snapReader) (sqlfeature.Feature, error) {
	clause, err := r.str()
	if err != nil {
		return sqlfeature.Feature{}, err
	}
	item, err := r.str()
	if err != nil {
		return sqlfeature.Feature{}, err
	}
	return sqlfeature.Feature{Clause: sqlfeature.Clause(clause), Item: item}, nil
}

func marshalStringSets(p Prepared) ([]byte, error) {
	sets, ok := p.(*internedPrepared[string])
	if !ok {
		return nil, fmt.Errorf("distance: cannot snapshot prepared state %T as string sets", p)
	}
	w := newSnapWriter(snapInternedStrings)
	writeInterned(w, sets, writeStringElem)
	return w.buf, nil
}

func unmarshalStringSets(data []byte) (Prepared, error) {
	r, tag, err := newSnapReader(data, snapInternedStrings, snapStringSets)
	if err != nil {
		return nil, err
	}
	var out *internedPrepared[string]
	if tag == snapInternedStrings {
		out, err = readInterned(r, readStringElem)
	} else {
		out, err = readLegacySets(r, readStringElem)
	}
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// MarshalPrepared implements Snapshotter over token sets.
func (tokenMetric) MarshalPrepared(p Prepared) ([]byte, error) { return marshalStringSets(p) }

// UnmarshalPrepared implements Snapshotter over token sets.
func (tokenMetric) UnmarshalPrepared(data []byte) (Prepared, error) {
	return unmarshalStringSets(data)
}

// MarshalPrepared implements Snapshotter over result tuple sets. The
// snapshot carries the materialized tuple-set keys, so restoring it
// re-executes no queries — the whole point of persisting the result
// measure's expensive prepared state.
func (*resultMetric) MarshalPrepared(p Prepared) ([]byte, error) { return marshalStringSets(p) }

// UnmarshalPrepared implements Snapshotter over result tuple sets.
func (*resultMetric) UnmarshalPrepared(data []byte) (Prepared, error) {
	return unmarshalStringSets(data)
}

// MarshalPrepared implements Snapshotter over SnipSuggest feature sets.
func (structureMetric) MarshalPrepared(p Prepared) ([]byte, error) {
	sets, ok := p.(*internedPrepared[sqlfeature.Feature])
	if !ok {
		return nil, fmt.Errorf("distance: cannot snapshot prepared state %T as feature sets", p)
	}
	w := newSnapWriter(snapInternedFeatures)
	writeInterned(w, sets, writeFeatureElem)
	return w.buf, nil
}

// UnmarshalPrepared implements Snapshotter over feature sets.
func (structureMetric) UnmarshalPrepared(data []byte) (Prepared, error) {
	r, tag, err := newSnapReader(data, snapInternedFeatures, snapFeatureSets)
	if err != nil {
		return nil, err
	}
	var out *internedPrepared[sqlfeature.Feature]
	if tag == snapInternedFeatures {
		out, err = readInterned(r, readFeatureElem)
	} else {
		out, err = readLegacySets(r, readFeatureElem)
	}
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// --- access areas ---

// Value kind bytes in access-area snapshots.
const (
	snapValNull   byte = 0
	snapValInt    byte = 1
	snapValFloat  byte = 2
	snapValString byte = 3
	snapValBytes  byte = 4
)

func writeValue(w *snapWriter, v value.Value) error {
	switch v.Kind() {
	case value.KindNull:
		w.byteVal(snapValNull)
	case value.KindInt:
		w.byteVal(snapValInt)
		w.varint(v.AsInt())
	case value.KindFloat:
		w.byteVal(snapValFloat)
		w.float(v.AsFloat())
	case value.KindString:
		w.byteVal(snapValString)
		w.str(v.AsString())
	case value.KindBytes:
		w.byteVal(snapValBytes)
		w.bytes(v.AsBytes())
	default:
		return fmt.Errorf("distance: cannot snapshot value kind %v", v.Kind())
	}
	return nil
}

func readValue(r *snapReader) (value.Value, error) {
	kind, err := r.byteVal()
	if err != nil {
		return value.Value{}, err
	}
	switch kind {
	case snapValNull:
		return value.Null(), nil
	case snapValInt:
		i, err := r.varint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Int(i), nil
	case snapValFloat:
		f, err := r.float()
		if err != nil {
			return value.Value{}, err
		}
		return value.Float(f), nil
	case snapValString:
		s, err := r.str()
		if err != nil {
			return value.Value{}, err
		}
		return value.Str(s), nil
	case snapValBytes:
		b, err := r.bytes()
		if err != nil {
			return value.Value{}, err
		}
		return value.Bytes(b), nil
	default:
		return value.Value{}, fmt.Errorf("distance: unknown snapshot value kind %d", kind)
	}
}

func writeArea(w *snapWriter, a accessarea.Area) error {
	ivs := a.Intervals()
	w.uvarint(uint64(len(ivs)))
	for _, iv := range ivs {
		if err := writeValue(w, iv.Lo.V); err != nil {
			return err
		}
		w.byteVal(boolByte(iv.Lo.Open))
		if err := writeValue(w, iv.Hi.V); err != nil {
			return err
		}
		w.byteVal(boolByte(iv.Hi.Open))
	}
	return nil
}

func readArea(r *snapReader) (accessarea.Area, error) {
	n, err := r.count(4) // an interval is at least two value kinds and two open flags
	if err != nil {
		return accessarea.Area{}, err
	}
	ivs := make([]accessarea.Interval, n)
	for i := range ivs {
		lo, err := readValue(r)
		if err != nil {
			return accessarea.Area{}, err
		}
		loOpen, err := r.byteVal()
		if err != nil {
			return accessarea.Area{}, err
		}
		hi, err := readValue(r)
		if err != nil {
			return accessarea.Area{}, err
		}
		hiOpen, err := r.byteVal()
		if err != nil {
			return accessarea.Area{}, err
		}
		ivs[i] = accessarea.Interval{
			Lo: accessarea.Endpoint{V: lo, Open: loOpen != 0},
			Hi: accessarea.Endpoint{V: hi, Open: hiOpen != 0},
		}
	}
	// NewArea re-normalizes; the input was already normalized, so this
	// is the identity and Equal/Overlaps behave exactly as before.
	return accessarea.NewArea(ivs...), nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// MarshalPrepared implements Snapshotter over precomputed access areas.
// The wire format predates the interning refactor and is written
// byte-for-byte unchanged — attribute names are materialized back from
// their interned ids and listed in sorted order per query, exactly as
// the map-era encoder sorted them.
func (*accessAreaMetric) MarshalPrepared(p Prepared) ([]byte, error) {
	aa, ok := p.(*aaPrepared)
	if !ok {
		return nil, fmt.Errorf("distance: cannot snapshot prepared state %T as access areas", p)
	}
	w := newSnapWriter(snapAccessArea)
	w.float(aa.x)
	w.uvarint(uint64(len(aa.queries)))
	for _, q := range aa.queries {
		type namedArea struct {
			name string
			area accessarea.Area
		}
		named := make([]namedArea, len(q.ids))
		for k, id := range q.ids {
			named[k] = namedArea{name: aa.attrs.elems[id], area: q.areas[k]}
		}
		sort.Slice(named, func(i, j int) bool { return named[i].name < named[j].name })
		w.uvarint(uint64(len(named)))
		for _, na := range named {
			w.str(na.name)
		}
		w.uvarint(uint64(len(named)))
		for _, na := range named {
			w.str(na.name)
			if err := writeArea(w, na.area); err != nil {
				return nil, err
			}
		}
	}
	return w.buf, nil
}

// UnmarshalPrepared implements Snapshotter over precomputed access
// areas.
func (*accessAreaMetric) UnmarshalPrepared(data []byte) (Prepared, error) {
	r, _, err := newSnapReader(data, snapAccessArea)
	if err != nil {
		return nil, err
	}
	x, err := r.float()
	if err != nil {
		return nil, err
	}
	n, err := r.count(2) // a query is at least its attribute and area counts
	if err != nil {
		return nil, err
	}
	out := &aaPrepared{x: x, attrs: newDict[string](), queries: make([]aaQuery, 0, n)}
	for i := uint64(0); i < n; i++ {
		nAttrs, err := r.count(1)
		if err != nil {
			return nil, err
		}
		attrs := make([]string, nAttrs)
		for j := range attrs {
			if attrs[j], err = r.str(); err != nil {
				return nil, err
			}
		}
		nAreas, err := r.count(2) // an area is at least its name and interval counts
		if err != nil {
			return nil, err
		}
		areaByName := make(map[string]accessarea.Area, nAreas)
		for j := uint64(0); j < nAreas; j++ {
			a, err := r.str()
			if err != nil {
				return nil, err
			}
			area, err := readArea(r)
			if err != nil {
				return nil, err
			}
			areaByName[a] = area
		}
		// The attribute list is stored sorted, so interning in stored
		// order matches Prepare's sorted interning. An attribute with no
		// stored area (not produced by any real encoder) degrades to the
		// empty area, matching the old representation's lookup default.
		q := aaQuery{
			ids:   make([]uint32, 0, len(attrs)),
			areas: make([]accessarea.Area, 0, len(attrs)),
		}
		for _, a := range attrs {
			area, ok := areaByName[a]
			if !ok {
				area = accessarea.Empty()
			}
			q.ids = append(q.ids, out.attrs.intern(a))
			q.areas = append(q.areas, area)
		}
		sort.Sort(&aaByID{q})
		out.queries = append(out.queries, q)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// Interface checks: all four built-in metrics snapshot.
var (
	_ Snapshotter = tokenMetric{}
	_ Snapshotter = structureMetric{}
	_ Snapshotter = (*resultMetric)(nil)
	_ Snapshotter = (*accessAreaMetric)(nil)
)
