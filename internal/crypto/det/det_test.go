package det

import (
	"bytes"
	"testing"
	"testing/quick"
)

// raceEnabled is set under -race (race_test.go). The race detector
// makes sync.Pool drop a random share of its items, so allocation
// counts there are not the program's.
var raceEnabled bool

func TestRoundTrip(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	for _, pt := range [][]byte{nil, {}, []byte("x"), []byte("SELECT a FROM r"), bytes.Repeat([]byte{7}, 500)} {
		got, err := s.Decrypt(s.Encrypt(pt))
		if err != nil {
			t.Fatalf("Decrypt(%q): %v", pt, err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("round trip: got %q, want %q", got, pt)
		}
	}
}

func TestDeterministic(t *testing.T) {
	// The defining property of the DET class: equal plaintexts map to
	// equal ciphertexts under the same key.
	s := NewFromSeed([]byte("seed"))
	pt := []byte("constant")
	if !bytes.Equal(s.Encrypt(pt), s.Encrypt(pt)) {
		t.Fatal("DET scheme produced different ciphertexts for equal plaintexts")
	}
}

func TestDistinctPlaintextsDistinctCiphertexts(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	if bytes.Equal(s.Encrypt([]byte("a")), s.Encrypt([]byte("b"))) {
		t.Fatal("distinct plaintexts collided")
	}
}

func TestKeySeparation(t *testing.T) {
	s1 := NewFromSeed([]byte("seed-1"))
	s2 := NewFromSeed([]byte("seed-2"))
	pt := []byte("constant")
	if bytes.Equal(s1.Encrypt(pt), s2.Encrypt(pt)) {
		t.Fatal("different keys produced the same ciphertext")
	}
	if _, err := s2.Decrypt(s1.Encrypt(pt)); err == nil {
		t.Fatal("ciphertext must not authenticate under a different key")
	}
}

func TestKeySizeValidation(t *testing.T) {
	if _, err := New(make([]byte, 5)); err == nil {
		t.Fatal("New must reject short keys")
	}
	if _, err := New(make([]byte, KeySize)); err != nil {
		t.Fatalf("New rejected a valid key: %v", err)
	}
}

func TestTamperDetection(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	ct := s.Encrypt([]byte("payload"))
	for i := range ct {
		mut := append([]byte(nil), ct...)
		mut[i] ^= 0x80
		if _, err := s.Decrypt(mut); err == nil {
			t.Fatalf("flip at byte %d not detected", i)
		}
	}
}

func TestShortCiphertext(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	for _, ct := range [][]byte{nil, {}, {1, 2, 3}} {
		if _, err := s.Decrypt(ct); err == nil {
			t.Fatalf("short ciphertext %v must fail", ct)
		}
	}
}

func TestEncryptString(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	if !bytes.Equal(s.EncryptString("abc"), s.Encrypt([]byte("abc"))) {
		t.Fatal("EncryptString must agree with Encrypt")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	s := NewFromSeed([]byte("quick"))
	f := func(pt []byte) bool {
		got, err := s.Decrypt(s.Encrypt(pt))
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterminismAndInjectivity(t *testing.T) {
	s := NewFromSeed([]byte("quick"))
	f := func(a, b []byte) bool {
		ca1, ca2 := s.Encrypt(a), s.Encrypt(a)
		cb := s.Encrypt(b)
		if !bytes.Equal(ca1, ca2) {
			return false
		}
		// Equal ciphertexts iff equal plaintexts.
		return bytes.Equal(ca1, cb) == bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncryptAllocs gates the per-constant cost: a warm Encrypt
// allocates its synthetic IV, its output and its CTR stream, nothing
// more.
func TestEncryptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	s := NewFromSeed([]byte("seed"))
	pt := []byte("SELECT-constant-0123456789")
	if allocs := testing.AllocsPerRun(100, func() { s.Encrypt(pt) }); allocs > 3 {
		t.Errorf("Encrypt: %v allocations, want at most 3", allocs)
	}
}
