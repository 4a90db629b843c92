package binenc

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// TestRoundTrip reads back one value of every kind the append helpers
// and encoding/binary write.
func TestRoundTrip(t *testing.T) {
	b := binary.AppendUvarint(nil, 1<<40)
	b = binary.AppendVarint(b, -7)
	b = binary.AppendVarint(b, math.MinInt64)
	b = append(b, 0xAB)
	b = AppendFloat(b, math.Copysign(0, -1))
	b = AppendString(b, "héllo")
	b = AppendString(b, []byte{0, 1, 2})
	b = binary.AppendUvarint(b, 3)

	r := NewReader(b)
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Byte(); v != 0xAB {
		t.Errorf("Byte = %#x", v)
	}
	if v := r.Float(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("Float = %v, want -0", v)
	}
	if v := r.Str(); v != "héllo" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(); string(v) != "\x00\x01\x02" {
		t.Errorf("Bytes = %v", v)
	}
	if r.left() != 1 {
		t.Errorf("left() = %d, want 1", r.left())
	}
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("Done with one byte left = %v", err)
	}
	if c := (&Reader{buf: b[len(b)-1:]}).Count(1); c != 0 {
		t.Errorf("Count(1) of 3 with nothing left = %d, want 0", c)
	}
}

// TestFirstFailureSticks: each read past a failure returns a zero value
// and leaves the first error in place, so a decoder checks once.
func TestFirstFailureSticks(t *testing.T) {
	for name, c := range map[string]struct {
		data []byte
		read func(*Reader)
		want string
	}{
		"truncated varint": {[]byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated or oversized varint"},
		"empty byte":       {nil, func(r *Reader) { r.Byte() }, "truncated"},
		"short float":      {make([]byte, 7), func(r *Reader) { r.Float() }, "truncated float"},
		"count past end":   {binary.AppendUvarint(nil, 3), func(r *Reader) { r.Count(1) }, "count 3 exceeds the 0 bytes left"},
		"wide count":       {append(binary.AppendUvarint(nil, 2), 0, 0, 0), func(r *Reader) { r.Count(2) }, "count 2 exceeds the 3 bytes left"},
		"string past end":  {append(binary.AppendUvarint(nil, 5), 'a'), func(r *Reader) { r.Str() }, "count 5 exceeds the 1 bytes left"},
		"caller rule":      {[]byte{1}, func(r *Reader) { r.Fail("rule %d", 9) }, "at offset 0: rule 9"},
	} {
		r := NewReader(c.data)
		c.read(r)
		first := r.Err()
		if first == nil || !strings.Contains(first.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", name, first, c.want)
			continue
		}
		if r.Uvarint() != 0 || r.Int() != 0 || r.Byte() != 0 || r.Float() != 0 || r.Str() != "" || r.Bytes() != nil || r.Count(1) != 0 {
			t.Errorf("%s: a read after the failure returned a non-zero value", name)
		}
		r.Fail("later")
		if r.Err() != first || r.Done() != first {
			t.Errorf("%s: error changed from %v to %v", name, first, r.Err())
		}
	}
}
