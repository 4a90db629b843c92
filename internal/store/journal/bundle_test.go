package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/store"
)

// writeBundle renders recs as a complete bundle.
func writeBundle(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBundleWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := bw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawBundle frames raw records, which need not decode, into a complete
// bundle.
func rawBundle(t testing.TB, recs ...store.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBundleWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		frame, err := store.AppendFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		bw.w.Write(frame)
		bw.count++
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBundleRoundTrip: every record kind frames into a bundle and reads
// back typed and equal, with the outcome counts matching.
func TestBundleRoundTrip(t *testing.T) {
	recs := allRecords(t)
	data := writeBundle(t, recs)
	h := &outcomeHandler{out: Applied}
	st, err := ReadBundle(bytes.NewReader(data), h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total() != len(recs) || st.Skipped != 0 {
		t.Errorf("stats = %+v, want %d applied", st, len(recs))
	}
	if !reflect.DeepEqual(h.seen, recs) {
		t.Errorf("read back %+v, want %+v", h.seen, recs)
	}
}

// TestBundleEmptyIsReadable: a bundle of zero records is still a valid
// file (header + trailer), and reads back empty.
func TestBundleEmptyIsReadable(t *testing.T) {
	data := writeBundle(t, nil)
	st, err := ReadBundle(bytes.NewReader(data), &outcomeHandler{out: Applied})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total() != 0 {
		t.Errorf("stats = %+v, want empty", st)
	}
}

// TestBundleRejectsDamage: every class of file damage — truncation at
// any point, a flipped payload byte, a bad magic, a future version, a
// count mismatch, trailing garbage — must fail the read outright. A
// restore is all-or-nothing at the file level.
func TestBundleRejectsDamage(t *testing.T) {
	good := writeBundle(t, allRecords(t))
	read := func(data []byte) error {
		_, err := ReadBundle(bytes.NewReader(data), &outcomeHandler{out: Applied})
		return err
	}
	err := read(good)
	if err != nil {
		t.Fatalf("pristine bundle rejected: %v", err)
	}

	// Truncation anywhere — inside the header, a frame, or the trailer.
	for _, cut := range []int{1, len(bundleMagic) - 1, len(bundleMagic) + 2, len(good) / 2, len(good) - 1} {
		if err := read(good[:cut]); err == nil {
			t.Errorf("bundle truncated to %d bytes read successfully", cut)
		}
	}

	// A flipped byte inside the first frame's payload fails its CRC.
	corrupt := append([]byte(nil), good...)
	corrupt[len(bundleMagic)+4+8+3] ^= 0xFF
	if err := read(corrupt); err == nil || !bytes.Contains([]byte(err.Error()), []byte("CRC")) {
		t.Errorf("payload corruption read = %v, want a CRC error", err)
	}

	// Wrong magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if err := read(bad); err == nil {
		t.Error("bad magic read successfully")
	}

	// A format version from a newer release.
	newer := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(newer[len(bundleMagic):], BundleVersion+1)
	if err := read(newer); err == nil {
		t.Error("newer-version bundle read successfully")
	}

	// Trailer count disagreeing with the frames actually present (the
	// count and its CRC are both rewritten, so only the mismatch trips).
	miscounted := append([]byte(nil), good...)
	n := len(miscounted)
	binary.LittleEndian.PutUint32(miscounted[n-8:n-4], 99)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], 99)
	binary.LittleEndian.PutUint32(miscounted[n-4:], crc32.ChecksumIEEE(cnt[:]))
	if err := read(miscounted); err == nil {
		t.Error("miscounted bundle read successfully")
	}

	// Trailing garbage after a valid trailer.
	if err := read(append(append([]byte(nil), good...), 0x00)); err == nil {
		t.Error("bundle with trailing garbage read successfully")
	}

	// A frame header claiming 1 GiB with no payload behind it: the read
	// fails as truncated, having allocated for the bytes present only.
	if hostile := hostileBundle(); len(hostile) != 20 {
		t.Errorf("hostile bundle is %d bytes, want 20", len(hostile))
	} else if alloc := allocatedBy(func() { err = read(hostile) }); err == nil || alloc >= 1<<20 {
		t.Errorf("20-byte bundle claiming a 1 GiB frame: err %v after allocating %d bytes, want an error under 1 MiB", err, alloc)
	}

	// A correctly framed record of an unknown kind (a newer release's
	// addition) counts as skipped — only unparseable frame JSON is a
	// hard error.
	st, err := ReadBundle(bytes.NewReader(rawBundle(t, store.Record{Kind: "no-such-kind", Session: "s-1"})), &outcomeHandler{out: Applied})
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || st.Total() != 1 {
		t.Errorf("unknown-kind record stats = %+v, want 1 skipped", st)
	}
}

// TestBundleWriterValidatesRecords: an incomplete typed record fails
// Append before anything is framed.
func TestBundleWriterValidatesRecords(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBundleWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(Session{}); err == nil {
		t.Error("Append of an invalid record succeeded")
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := ReadBundle(bytes.NewReader(buf.Bytes()), &outcomeHandler{out: Applied}); err != nil || st.Total() != 0 {
		t.Errorf("bundle after failed Append: stats %+v, err %v", st, err)
	}
}

// hostileBundle is a bundle header followed by one frame header that
// claims a 1 GiB payload, and nothing else.
func hostileBundle() []byte {
	b := binary.LittleEndian.AppendUint32([]byte(bundleMagic), BundleVersion)
	b = binary.LittleEndian.AppendUint32(b, 1<<30) // payload length
	return binary.LittleEndian.AppendUint32(b, 0)  // payload CRC
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// canonical maps records to the form a rewrite reads back as: a
// session's request is raw JSON, which encoding compacts.
func canonical(t *testing.T, recs []Record) []Record {
	t.Helper()
	var out []Record // nil for no records, as the handler leaves it
	for _, rec := range recs {
		if s, ok := rec.(Session); ok {
			req, err := json.Marshal(s.Request)
			if err != nil {
				t.Fatalf("re-encoding an accepted session request %q: %v", s.Request, err)
			}
			s.Request = req
			rec = s
		}
		out = append(out, rec)
	}
	return out
}

// FuzzReadBundle checks the bundle reader, and journal.Decode behind
// it, on arbitrary bytes: it never panics; it allocates at most 1 MiB
// plus 64 bytes per input byte; and the records of an accepted bundle,
// rewritten through BundleWriter, read back the same (session requests
// compared compacted).
func FuzzReadBundle(f *testing.F) {
	parent, err := os.ReadFile(filepath.Join("..", "..", "service", "testdata", "parent_approx", "session.bundle"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(writeBundle(f, allRecords(f)))
	f.Add(parent)
	f.Add(hostileBundle())
	// Delta log blobs with a tail count of 2^32-1 and with a query that
	// claims 5 bytes where 1 is left.
	for _, blob := range [][]byte{{1, 1, 'b', 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'c'}, {1, 1, 'b', 1, 5, 'c'}} {
		f.Add(rawBundle(f, store.Record{Kind: store.KindLog, Session: "s-1", Log: "l-2", Blob: blob}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &outcomeHandler{out: Applied}
		var err error
		if got, bound := allocatedBy(func() { _, err = ReadBundle(bytes.NewReader(data), h) }), uint64(1<<20+64*len(data)); got > bound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		bw, err := NewBundleWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range h.seen {
			if err := bw.Append(rec); err != nil {
				t.Fatalf("rewriting accepted record %+v: %v", rec, err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		back := &outcomeHandler{out: Applied}
		if _, err := ReadBundle(&buf, back); err != nil {
			t.Fatalf("reading the rewritten bundle: %v", err)
		}
		if want := canonical(t, h.seen); !reflect.DeepEqual(back.seen, want) {
			t.Fatalf("rewritten bundle reads back %+v, want %+v", back.seen, want)
		}
	})
}
