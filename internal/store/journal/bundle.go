package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/store"
)

// Bundle file format — the portable form of one tenant's journal
// records (dpectl export / import):
//
//	8-byte magic "DPEBNDL\x00" | u32-le format version
//	repeated record frames:
//	  u32-le payload length | u32-le CRC-32 (IEEE) of payload | payload
//	trailer:
//	  u32-le 0xFFFFFFFF | u32-le record count | u32-le CRC-32 of count
//
// The record frames are store.AppendFrame's, around records produced by
// this package's typed codecs — the same bytes a segment journal holds —
// so a bundle is readable by any backend and any future release that
// keeps the codecs. The sentinel length 0xFFFFFFFF can never open a
// real frame (it exceeds the record size cap), so the trailer is
// unambiguous; unlike a crash-tolerant journal, a bundle missing its
// trailer (or failing any CRC) is rejected outright — a torn backup
// must be detected at restore time, not half-applied.
const (
	bundleMagic = "DPEBNDL\x00"
	// BundleVersion is the bundle format version this package writes.
	BundleVersion   = 1
	trailerSentinel = 0xFFFFFFFF
)

// BundleWriter streams typed records into a bundle. Append frames each
// record; Close writes the integrity trailer — a bundle without a
// successful Close is unreadable by design.
type BundleWriter struct {
	w     *bufio.Writer
	count uint32
}

// NewBundleWriter starts a bundle on w, writing the header.
func NewBundleWriter(w io.Writer) (*BundleWriter, error) {
	bw := &BundleWriter{w: bufio.NewWriter(w)}
	if _, err := bw.w.WriteString(bundleMagic); err != nil {
		return nil, fmt.Errorf("journal: writing bundle magic: %w", err)
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], BundleVersion)
	if _, err := bw.w.Write(v[:]); err != nil {
		return nil, fmt.Errorf("journal: writing bundle version: %w", err)
	}
	return bw, nil
}

// Append encodes one typed record and frames it into the bundle.
func (bw *BundleWriter) Append(rec Record) error {
	raw, err := rec.encode()
	if err != nil {
		return err
	}
	frame, err := store.AppendFrame(nil, raw)
	if err != nil {
		return err
	}
	if _, err := bw.w.Write(frame); err != nil {
		return fmt.Errorf("journal: writing bundle frame: %w", err)
	}
	bw.count++
	return nil
}

// Close writes the trailer and flushes. The caller owns the underlying
// writer (Close does not close it).
func (bw *BundleWriter) Close() error {
	var t [12]byte
	binary.LittleEndian.PutUint32(t[0:4], trailerSentinel)
	binary.LittleEndian.PutUint32(t[4:8], bw.count)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], bw.count)
	binary.LittleEndian.PutUint32(t[8:12], crc32.ChecksumIEEE(cnt[:]))
	if _, err := bw.w.Write(t[:]); err != nil {
		return fmt.Errorf("journal: writing bundle trailer: %w", err)
	}
	if err := bw.w.Flush(); err != nil {
		return fmt.Errorf("journal: flushing bundle: %w", err)
	}
	return nil
}

// ReadBundle verifies and streams a bundle through h, returning the
// outcome counts. Integrity problems — bad magic, a version from a
// newer release, a CRC mismatch, a missing or inconsistent trailer,
// trailing garbage — are errors: a restore must be all-or-nothing at
// the file level. Records that decode but cannot be applied are
// counted in Stats.Skipped by the handler dispatch, same as replay.
func ReadBundle(r io.Reader, h Handler) (Stats, error) {
	var st Stats
	br := bufio.NewReader(r)
	magic := make([]byte, len(bundleMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return st, fmt.Errorf("journal: reading bundle magic: %w", err)
	}
	if string(magic) != bundleMagic {
		return st, fmt.Errorf("journal: not a bundle (bad magic)")
	}
	var vbuf [4]byte
	if _, err := io.ReadFull(br, vbuf[:]); err != nil {
		return st, fmt.Errorf("journal: reading bundle version: %w", err)
	}
	if v := binary.LittleEndian.Uint32(vbuf[:]); v > BundleVersion {
		return st, fmt.Errorf("journal: bundle format version %d is newer than this binary (max %d)", v, BundleVersion)
	}
	var read uint32
	for {
		// A trailer opens with the sentinel where a frame has its length.
		peek, err := br.Peek(4)
		if err != nil {
			return st, fmt.Errorf("journal: truncated bundle (missing trailer): %w", err)
		}
		if binary.LittleEndian.Uint32(peek) == trailerSentinel {
			break
		}
		rec, _, err := store.ReadFrame(br)
		if err != nil {
			return st, fmt.Errorf("journal: bundle record: %w", err)
		}
		read++
		dispatch(rec, h, &st)
	}
	var t [12]byte
	if _, err := io.ReadFull(br, t[:]); err != nil {
		return st, fmt.Errorf("journal: truncated bundle trailer: %w", err)
	}
	if crc32.ChecksumIEEE(t[4:8]) != binary.LittleEndian.Uint32(t[8:12]) {
		return st, fmt.Errorf("journal: bundle trailer CRC mismatch")
	}
	if count := binary.LittleEndian.Uint32(t[4:8]); count != read {
		return st, fmt.Errorf("journal: bundle trailer says %d records, read %d", count, read)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return st, fmt.Errorf("journal: trailing data after bundle trailer")
	}
	return st, nil
}
