package swp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSearchFindsAllOccurrences(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	words := []string{"galaxy", "star", "galaxy", "qso", "galaxy", "star"}
	cts := s.EncryptTokens(words, 0)
	got := s.Trapdoor("galaxy").Search(cts)
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("positions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions = %v, want %v", got, want)
		}
	}
}

func TestNoFalsePositives(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	cts := s.EncryptTokens(words, 0)
	if hits := s.Trapdoor("zz").Search(cts); len(hits) != 0 {
		t.Fatalf("phantom matches: %v", hits)
	}
}

func TestCiphertextsPositionRandomized(t *testing.T) {
	// Same word at two positions must yield different ciphertexts —
	// otherwise the stored column would be deterministic and leak
	// frequencies without any search.
	s := NewFromSeed([]byte("seed"))
	c0 := s.Encrypt("star", 0)
	c1 := s.Encrypt("star", 1)
	if bytes.Equal(c0, c1) {
		t.Fatal("SWP ciphertexts must differ across positions")
	}
	// But deterministic per (word, position): re-encryption reproducible.
	if !bytes.Equal(c0, s.Encrypt("star", 0)) {
		t.Fatal("SWP must be deterministic per position")
	}
}

func TestTrapdoorIsolation(t *testing.T) {
	// The trapdoor for one word must not match other words' ciphertexts.
	s := NewFromSeed([]byte("seed"))
	td := s.Trapdoor("star")
	for _, w := range []string{"stars", "sta", "STAR", "qso", ""} {
		if td.Matches(s.Encrypt(w, 7)) {
			t.Fatalf("trapdoor for star matched %q", w)
		}
	}
	if !td.Matches(s.Encrypt("star", 7)) {
		t.Fatal("trapdoor must match its own word")
	}
}

func TestKeySeparation(t *testing.T) {
	s1 := NewFromSeed([]byte("k1"))
	s2 := NewFromSeed([]byte("k2"))
	ct := s1.Encrypt("star", 0)
	if s2.Trapdoor("star").Matches(ct) {
		t.Fatal("trapdoor under another key must not match")
	}
}

func TestMalformedCiphertext(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	td := s.Trapdoor("x")
	for _, ct := range [][]byte{nil, {}, make([]byte, blockSize-1), make([]byte, blockSize+1)} {
		if td.Matches(ct) {
			t.Fatalf("malformed ciphertext of len %d matched", len(ct))
		}
	}
}

func TestMasterKeyValidation(t *testing.T) {
	if _, err := New(make([]byte, 16)); err == nil {
		t.Fatal("short master key must be rejected")
	}
	if _, err := New(make([]byte, 32)); err != nil {
		t.Fatalf("valid key rejected: %v", err)
	}
}

func TestQuickMatchIffSameWord(t *testing.T) {
	s := NewFromSeed([]byte("quick"))
	f := func(a, b string, pos uint16) bool {
		ct := s.Encrypt(a, uint64(pos))
		return s.Trapdoor(b).Matches(ct) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptTokensBaseOffset(t *testing.T) {
	s := NewFromSeed([]byte("seed"))
	a := s.EncryptTokens([]string{"x", "y"}, 0)
	b := s.EncryptTokens([]string{"x", "y"}, 100)
	if bytes.Equal(a[0], b[0]) {
		t.Fatal("different base offsets must change ciphertexts")
	}
	td := s.Trapdoor("x")
	if !td.Matches(a[0]) || !td.Matches(b[0]) {
		t.Fatal("trapdoor must match across offsets")
	}
}

// TestLikeStyleSearchOverColumn demonstrates the intended integration:
// a string column is stored as SWP token streams; "class LIKE
// '%galaxy%'" becomes a trapdoor scan, without decrypting the column.
func TestLikeStyleSearchOverColumn(t *testing.T) {
	s := NewFromSeed([]byte("column"))
	rows := [][]string{
		{"bright", "galaxy", "north"},
		{"faint", "star"},
		{"galaxy", "cluster"},
		{"quasar"},
	}
	var stored [][][]byte
	base := uint64(0)
	for _, tokens := range rows {
		stored = append(stored, s.EncryptTokens(tokens, base))
		base += uint64(len(tokens))
	}
	td := s.Trapdoor("galaxy")
	var hits []int
	for i, row := range stored {
		for _, ct := range row {
			if td.Matches(ct) {
				hits = append(hits, i)
				break
			}
		}
	}
	if len(hits) != 2 || hits[0] != 0 || hits[1] != 2 {
		t.Fatalf("rows matching 'galaxy' = %v, want [0 2]", hits)
	}
}

// EncryptTokens encrypts a tokenized string cell (e.g. the words of a
// text column) with per-position ciphertexts, as CryptDB's SEARCH onion
// stores them.
func (s *Scheme) EncryptTokens(tokens []string, base uint64) [][]byte {
	out := make([][]byte, len(tokens))
	for i, w := range tokens {
		out[i] = s.Encrypt(w, base+uint64(i))
	}
	return out
}
