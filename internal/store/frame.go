package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Record framing, shared by segment journals and tenant bundles. Each
// record is
//
//	u32-le payload length | u32-le CRC-32 (IEEE) of payload | payload
//
// where the payload is the JSON encoding of a Record. The frame makes
// torn tails detectable: a crash mid-append leaves either a short
// header, a short payload, or a CRC mismatch.
const frameHeaderSize = 8

// maxRecordSize bounds one record's payload. 1 GiB comfortably exceeds
// any legitimate catalog upload (the HTTP layer caps request bodies at
// 256 MiB); larger lengths never open a frame, which is what lets a
// bundle's trailer start with 0xFFFFFFFF.
const maxRecordSize = 1 << 30

// payloadChunk is the most ReadFrame allocates for a payload before its
// bytes arrive.
const payloadChunk = 64 << 10

// AppendFrame appends rec's frame to b.
func AppendFrame(b []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encoding record: %w", err)
	}
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("store: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordSize)
	}
	b = slices.Grow(b, frameHeaderSize+len(payload))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...), nil
}

// ReadFrame reads one frame from r and decodes its record, returning
// the frame's size in bytes. It returns io.EOF, unwrapped, when r ends
// before the frame starts; any other error means a short, oversized,
// corrupt or undecodable frame. The payload buffer grows as its bytes
// arrive, so a damaged or hostile length costs only the bytes actually
// present.
func ReadFrame(r io.Reader) (Record, int, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("store: truncated frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecordSize {
		return Record{}, 0, fmt.Errorf("store: frame of %d bytes exceeds the %d-byte limit", n, maxRecordSize)
	}
	payload := make([]byte, 0, min(int(n), payloadChunk))
	for {
		k, err := io.ReadFull(r, payload[len(payload):min(cap(payload), int(n))])
		payload = payload[:len(payload)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, 0, fmt.Errorf("store: truncated frame payload: %w", err)
		}
		if len(payload) == int(n) {
			break
		}
		payload = slices.Grow(payload, min(int(n)-len(payload), len(payload)))
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return Record{}, 0, fmt.Errorf("store: frame CRC mismatch")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, fmt.Errorf("store: undecodable frame record: %w", err)
	}
	return rec, frameHeaderSize + int(n), nil
}
