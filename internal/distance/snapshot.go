package distance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/accessarea"
	"repro/internal/binenc"
	"repro/internal/sqlfeature"
	"repro/internal/value"
)

// Snapshot framing: a 4-byte magic ("DPS" + version) and a payload tag,
// then the tag-specific body, read through one binenc.Reader. All
// integers are varints; floats are 8-byte little-endian IEEE 754 bit
// patterns (exact round trip).
var snapshotMagic = [4]byte{'D', 'P', 'S', '1'}

// Payload tags version the body format; each measure reads exactly the
// tag it writes. Tags 1 and 2 were the map-era set encodings, which no
// binary has written since the interned kernel: a snapshot is a cache
// of its log, so one in a retired tag fails to decode and is prepared
// again. A retired tag is never reused. Tag 3 is unchanged across the
// interning refactor — its on-disk bytes are identical before and
// after. Tags 4 and 5 are the interned encodings (dictionary once, then
// delta-encoded id lists per query).
const (
	snapAccessArea       byte = 3 // aaPrepared: access-area metric
	snapInternedStrings  byte = 4 // internedPrepared[string]: token and result metrics
	snapInternedFeatures byte = 5 // internedPrepared[sqlfeature.Feature]: structure metric
)

// snapMaxTag is the highest payload tag this binary understands; a
// larger tag means the snapshot was written by a newer version.
const snapMaxTag = snapInternedFeatures

// snapshotHeader starts a snapshot buffer with the magic and tag.
func snapshotHeader(tag byte) []byte {
	return append(append(make([]byte, 0, 256), snapshotMagic[:]...), tag)
}

// openSnapshot validates the magic and payload tag, returning a reader
// over the body.
func openSnapshot(data []byte, want byte) (*binenc.Reader, error) {
	if len(data) < len(snapshotMagic)+1 {
		return nil, fmt.Errorf("distance: snapshot of %d bytes is shorter than its header", len(data))
	}
	if !bytes.Equal(data[:len(snapshotMagic)], snapshotMagic[:]) {
		return nil, fmt.Errorf("distance: snapshot has bad magic %q", data[:len(snapshotMagic)])
	}
	switch tag := data[len(snapshotMagic)]; {
	case tag == want:
		return binenc.NewReader(data[len(snapshotMagic)+1:]), nil
	case tag > snapMaxTag:
		return nil, fmt.Errorf("distance: snapshot payload tag %d is newer than this binary supports (max %d); upgrade the binary or re-prepare the session", tag, snapMaxTag)
	default:
		return nil, fmt.Errorf("distance: snapshot payload tag %d, want %d (snapshot from a different measure or a retired format?)", tag, want)
	}
}

// closeSnapshot reports the body reader's first failure, or trailing
// bytes.
func closeSnapshot(r *binenc.Reader) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("distance: snapshot body: %w", err)
	}
	return nil
}

// --- set measures ---

// setCodec encodes the elements of one set measure's snapshots under
// its payload tag.
type setCodec[K comparable] struct {
	tag byte
	put func([]byte, K) []byte
	get func(*binenc.Reader) K
}

var stringCodec = &setCodec[string]{
	tag: snapInternedStrings,
	put: binenc.AppendString[string],
	get: (*binenc.Reader).Str,
}

var featureCodec = &setCodec[sqlfeature.Feature]{
	tag: snapInternedFeatures,
	put: func(b []byte, f sqlfeature.Feature) []byte {
		return binenc.AppendString(binenc.AppendString(b, string(f.Clause)), f.Item)
	},
	get: func(r *binenc.Reader) sqlfeature.Feature {
		clause := sqlfeature.Clause(r.Str())
		return sqlfeature.Feature{Clause: clause, Item: r.Str()}
	},
}

// MarshalPrepared encodes an interned state: the dictionary once (in id
// order, so restore re-interns into identical ids), then each query as
// its cardinality followed by delta-encoded ascending element ids. For
// the result measure the snapshot carries the materialized tuple-set
// keys, so restoring it re-executes no queries.
func (m *setMetric[K]) MarshalPrepared(p Prepared) ([]byte, error) {
	sets, ok := p.(*internedPrepared[K])
	if !ok {
		return nil, fmt.Errorf("distance: %s: cannot snapshot prepared state %T", m.name, p)
	}
	b := snapshotHeader(m.codec.tag)
	b = binary.AppendUvarint(b, uint64(len(sets.dict.elems)))
	for _, k := range sets.dict.elems {
		b = m.codec.put(b, k)
	}
	b = binary.AppendUvarint(b, uint64(len(sets.sets)))
	var ids []uint32
	for _, words := range sets.sets {
		ids = appendBitsetIDs(ids[:0], words)
		b = binary.AppendUvarint(b, uint64(len(ids)))
		prev := uint32(0)
		for _, id := range ids {
			b = binary.AppendUvarint(b, uint64(id-prev))
			prev = id
		}
	}
	return b, nil
}

func (m *setMetric[K]) UnmarshalPrepared(data []byte) (Prepared, error) {
	r, err := openSnapshot(data, m.codec.tag)
	if err != nil {
		return nil, err
	}
	out := m.codec.readInterned(r)
	if err := closeSnapshot(r); err != nil {
		return nil, err
	}
	return out, nil
}

// readInterned decodes what MarshalPrepared wrote. Elements re-intern
// in stored (id) order, so the restored dictionary is identical to the
// marshaled one and a re-marshal yields the same bytes. Ids are summed
// in 64 bits, so no delta wraps back onto an earlier id.
func (c *setCodec[K]) readInterned(r *binenc.Reader) *internedPrepared[K] {
	nElems := r.Count(1)
	out := newInternedPrepared[K](0)
	for i := 0; i < nElems && r.Err() == nil; i++ {
		if id := out.dict.intern(c.get(r)); int(id) != i {
			r.Fail("dictionary repeats an element at id %d", i)
		}
	}
	nSets := r.Count(1)
	for i := 0; i < nSets && r.Err() == nil; i++ {
		card := r.Count(1)
		var words []uint64
		id := uint64(0)
		for j := 0; j < card && r.Err() == nil; j++ {
			switch d := r.Uvarint(); {
			case j > 0 && d == 0:
				r.Fail("set %d repeats element id %d", i, id)
			case d >= uint64(nElems)-id:
				r.Fail("set %d references an element beyond the %d-element dictionary", i, nElems)
			default:
				id += d
				words = bitsetSet(words, uint32(id))
			}
		}
		out.sets = append(out.sets, words)
		out.cards = append(out.cards, card)
	}
	return out
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

func appendValue(b []byte, v value.Value) ([]byte, error) {
	switch v.Kind() {
	case value.KindNull:
		return append(b, snapValNull), nil
	case value.KindInt:
		return binary.AppendVarint(append(b, snapValInt), v.AsInt()), nil
	case value.KindFloat:
		return binenc.AppendFloat(append(b, snapValFloat), v.AsFloat()), nil
	case value.KindString:
		return binenc.AppendString(append(b, snapValString), v.AsString()), nil
	case value.KindBytes:
		return binenc.AppendString(append(b, snapValBytes), v.AsBytes()), nil
	default:
		return nil, fmt.Errorf("distance: cannot snapshot value kind %v", v.Kind())
	}
}

func readValue(r *binenc.Reader) value.Value {
	switch kind := r.Byte(); kind {
	case snapValNull:
		return value.Null()
	case snapValInt:
		return value.Int(r.Varint())
	case snapValFloat:
		return value.Float(r.Float())
	case snapValString:
		return value.Str(r.Str())
	case snapValBytes:
		return value.Bytes(r.Bytes())
	default:
		r.Fail("unknown value kind %d", kind)
		return value.Null()
	}
}

func appendArea(b []byte, a accessarea.Area) ([]byte, error) {
	ivs := a.Intervals()
	b = binary.AppendUvarint(b, uint64(len(ivs)))
	var err error
	for _, iv := range ivs {
		if b, err = appendValue(b, iv.Lo.V); err != nil {
			return nil, err
		}
		b = append(b, boolByte(iv.Lo.Open))
		if b, err = appendValue(b, iv.Hi.V); err != nil {
			return nil, err
		}
		b = append(b, boolByte(iv.Hi.Open))
	}
	return b, nil
}

func readArea(r *binenc.Reader) accessarea.Area {
	ivs := make([]accessarea.Interval, r.Count(4)) // an interval is at least two value kinds and two open flags
	for i := range ivs {
		lo := readValue(r)
		loOpen := r.Byte()
		hi := readValue(r)
		hiOpen := r.Byte()
		ivs[i] = accessarea.Interval{
			Lo: accessarea.Endpoint{V: lo, Open: loOpen != 0},
			Hi: accessarea.Endpoint{V: hi, Open: hiOpen != 0},
		}
	}
	if r.Err() != nil {
		return accessarea.Area{}
	}
	// NewArea re-normalizes; the input was already normalized, so this
	// is the identity and Equal/Overlaps behave exactly as before.
	return accessarea.NewArea(ivs...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// MarshalPrepared encodes precomputed access areas. The wire format
// predates the interning refactor and is written byte-for-byte
// unchanged — attribute names are materialized back from their interned
// ids and listed in sorted order per query, exactly as the map-era
// encoder sorted them.
func (*accessAreaMetric) MarshalPrepared(p Prepared) ([]byte, error) {
	aa, ok := p.(*aaPrepared)
	if !ok {
		return nil, fmt.Errorf("distance: access-area: cannot snapshot prepared state %T", p)
	}
	b := binenc.AppendFloat(snapshotHeader(snapAccessArea), aa.x)
	b = binary.AppendUvarint(b, uint64(len(aa.queries)))
	var err error
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
		b = binary.AppendUvarint(b, uint64(len(named)))
		for _, na := range named {
			b = binenc.AppendString(b, na.name)
		}
		b = binary.AppendUvarint(b, uint64(len(named)))
		for _, na := range named {
			if b, err = appendArea(binenc.AppendString(b, na.name), na.area); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func (*accessAreaMetric) UnmarshalPrepared(data []byte) (Prepared, error) {
	r, err := openSnapshot(data, snapAccessArea)
	if err != nil {
		return nil, err
	}
	x := r.Float()
	n := r.Count(2) // a query is at least its attribute and area counts
	out := &aaPrepared{x: x, attrs: newDict[string](), queries: make([]aaQuery, 0, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		attrs := make([]string, r.Count(1))
		for j := range attrs {
			if attrs[j] = r.Str(); j > 0 && attrs[j] <= attrs[j-1] {
				r.Fail("query %d's attributes are not strictly ascending", i)
			}
		}
		nAreas := r.Count(2) // an area is at least its name and interval counts
		areaByName := make(map[string]accessarea.Area, nAreas)
		for j := 0; j < nAreas && r.Err() == nil; j++ {
			name := r.Str()
			areaByName[name] = readArea(r)
		}
		// The attribute list is sorted, so interning in stored order
		// matches Prepare's sorted interning. An attribute with no
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
	if err := closeSnapshot(r); err != nil {
		return nil, err
	}
	return out, nil
}
