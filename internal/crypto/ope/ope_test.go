package ope

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newSmall(t *testing.T, hg bool) *Scheme {
	t.Helper()
	s, err := New([]byte("test-key-ope"), Params{DomainBits: 8, ExpansionBits: 6, Hypergeometric: hg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidation(t *testing.T) {
	cases := []Params{
		{DomainBits: 0, ExpansionBits: 4},
		{DomainBits: 65, ExpansionBits: 4},
		{DomainBits: 8, ExpansionBits: 0},
		{DomainBits: 30, ExpansionBits: 10, Hypergeometric: true}, // 40 > 30
	}
	for _, p := range cases {
		if _, err := New([]byte("k"), p); err == nil {
			t.Errorf("New accepted invalid params %+v", p)
		}
	}
	if _, err := New([]byte("k"), DefaultParams()); err != nil {
		t.Fatalf("DefaultParams rejected: %v", err)
	}
}

// exhaustive order test over the full 8-bit domain, both modes.
func TestOrderPreservationExhaustive(t *testing.T) {
	for _, hg := range []bool{false, true} {
		s := newSmall(t, hg)
		var prev []byte
		for m := uint64(0); m < 256; m++ {
			c, err := s.Encrypt(m)
			if err != nil {
				t.Fatalf("hg=%v Encrypt(%d): %v", hg, m, err)
			}
			if len(c) != s.CiphertextLen() {
				t.Fatalf("hg=%v ciphertext width %d, want %d", hg, len(c), s.CiphertextLen())
			}
			if prev != nil && Compare(prev, c) >= 0 {
				t.Fatalf("hg=%v order violated at m=%d: Enc(%d) >= Enc(%d)", hg, m, m-1, m)
			}
			prev = c
		}
	}
}

func TestRoundTripExhaustive(t *testing.T) {
	for _, hg := range []bool{false, true} {
		s := newSmall(t, hg)
		for m := uint64(0); m < 256; m++ {
			c, err := s.Encrypt(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Decrypt(c)
			if err != nil {
				t.Fatalf("hg=%v Decrypt(Enc(%d)): %v", hg, m, err)
			}
			if got != m {
				t.Fatalf("hg=%v round trip: got %d, want %d", hg, got, m)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	for _, hg := range []bool{false, true} {
		s := newSmall(t, hg)
		a, _ := s.Encrypt(42)
		b, _ := s.Encrypt(42)
		if !bytes.Equal(a, b) {
			t.Fatalf("hg=%v OPE must be deterministic", hg)
		}
	}
}

func TestKeySeparation(t *testing.T) {
	p := Params{DomainBits: 16, ExpansionBits: 8}
	s1, _ := New([]byte("key-1"), p)
	s2, _ := New([]byte("key-2"), p)
	diff := 0
	for m := uint64(0); m < 64; m++ {
		c1, _ := s1.Encrypt(m)
		c2, _ := s2.Encrypt(m)
		if !bytes.Equal(c1, c2) {
			diff++
		}
	}
	if diff < 32 {
		t.Fatalf("keys barely separate: only %d/64 ciphertexts differ", diff)
	}
}

func TestDomainBoundsRejected(t *testing.T) {
	s, _ := New([]byte("k"), Params{DomainBits: 8, ExpansionBits: 4})
	if _, err := s.Encrypt(256); err == nil {
		t.Fatal("Encrypt must reject plaintext outside the domain")
	}
	if _, err := s.Encrypt(255); err != nil {
		t.Fatalf("Encrypt rejected in-domain plaintext: %v", err)
	}
}

func TestDecryptRejectsInvalid(t *testing.T) {
	s := newSmall(t, false)
	// Wrong width.
	if _, err := s.Decrypt([]byte{1, 2, 3, 4, 5, 6, 7}); err == nil {
		t.Fatal("Decrypt must reject wrong-width ciphertexts")
	}
	// Scan a window of range values; those not in the image must fail,
	// those in the image must round-trip. With 64x expansion, most of the
	// window is not in the image.
	invalid := 0
	for v := uint64(0); v < 512; v++ {
		c := make([]byte, s.CiphertextLen())
		c[len(c)-2] = byte(v >> 8)
		c[len(c)-1] = byte(v)
		if m, err := s.Decrypt(c); err != nil {
			invalid++
		} else if rc, _ := s.Encrypt(m); !bytes.Equal(rc, c) {
			t.Fatalf("Decrypt(%d) = %d but Encrypt(%d) != input", v, m, m)
		}
	}
	if invalid == 0 {
		t.Fatal("expected some range values outside the OPF image")
	}
}

func TestFullDomainDefaultParams(t *testing.T) {
	s := NewFromSeed([]byte("full-domain"))
	values := []uint64{0, 1, 2, 1000, 1 << 20, 1 << 40, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	var cts [][]byte
	for _, m := range values {
		c, err := s.Encrypt(m)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := s.Decrypt(c)
		if err != nil || got != m {
			t.Fatalf("round trip %d: got %d, err %v", m, got, err)
		}
		cts = append(cts, c)
	}
	for i := 1; i < len(cts); i++ {
		if Compare(cts[i-1], cts[i]) >= 0 {
			t.Fatalf("order violated between %d and %d", values[i-1], values[i])
		}
	}
}

func TestQuickOrderAndRoundTrip(t *testing.T) {
	s := NewFromSeed([]byte("quick-ope"))
	f := func(a, b uint64) bool {
		ca, err1 := s.Encrypt(a)
		cb, err2 := s.Encrypt(b)
		if err1 != nil || err2 != nil {
			return false
		}
		cmp := Compare(ca, cb)
		switch {
		case a < b && cmp >= 0:
			return false
		case a == b && cmp != 0:
			return false
		case a > b && cmp <= 0:
			return false
		}
		da, err := s.Decrypt(ca)
		return err == nil && da == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeInt64OrderPreserving(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := EncodeInt64(a), EncodeInt64(b)
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if DecodeInt64(EncodeInt64(-5)) != -5 || DecodeInt64(EncodeInt64(7)) != 7 {
		t.Fatal("DecodeInt64 must invert EncodeInt64")
	}
}

func TestEncodeFloat64OrderPreserving(t *testing.T) {
	vals := []float64{-1e300, -42.5, -1, -0.001, 0, 0.001, 1, 42.5, 1e300}
	for i := 1; i < len(vals); i++ {
		if EncodeFloat64(vals[i-1]) >= EncodeFloat64(vals[i]) {
			t.Fatalf("float encoding order violated between %v and %v", vals[i-1], vals[i])
		}
	}
	for _, v := range vals {
		if DecodeFloat64(EncodeFloat64(v)) != v {
			t.Fatalf("DecodeFloat64 round trip failed for %v", v)
		}
	}
}

func TestHypergeometricMatchesSupport(t *testing.T) {
	// In hypergeometric mode with a tiny domain, every plaintext must
	// decrypt correctly and strict order must hold — this exercises the
	// x==0 / x==M branches in the recursion.
	s, err := New([]byte("hg"), Params{DomainBits: 4, ExpansionBits: 8, Hypergeometric: true})
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for m := uint64(0); m < 16; m++ {
		c, err := s.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && Compare(prev, c) >= 0 {
			t.Fatalf("order violated at %d", m)
		}
		got, err := s.Decrypt(c)
		if err != nil || got != m {
			t.Fatalf("round trip %d: got %d err %v", m, got, err)
		}
		prev = c
	}
}

// CiphertextLen returns the fixed byte width of ciphertexts.
func (s *Scheme) CiphertextLen() int { return s.ctLen }
