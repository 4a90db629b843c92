// Package swp implements Song–Wagner–Perrig searchable symmetric
// encryption (practical techniques for searches on encrypted data,
// IEEE S&P 2000) — the extension the paper's case study points at for
// LIKE predicates: CryptDB's SEARCH onion uses exactly this scheme.
//
// The data owner encrypts each word of a document (here: each token of
// a string column) into a sequence of searchable ciphertexts. To search,
// the owner hands the provider a trapdoor for one word; the provider can
// test every stored ciphertext for a match without learning the word or
// any non-matching plaintext. Matching reveals only *which* positions
// match (access pattern), the standard SSE leakage.
//
// Construction (per word w at stream position i):
//
//	X  = E_det(w)              deterministic pre-encryption, split X = L || R
//	S_i = PRF_seed(i)          pseudo-random stream block
//	k_w = PRF_key(L)           word-derived key
//	C_i = X XOR ( S_i || F_{k_w}(S_i) )
//
// A trapdoor for w is (X, k_w). The provider XORs C_i with X, obtaining
// (S || T), and accepts iff T == F_{k_w}(S). Without the trapdoor the
// ciphertext is pseudo-random.
package swp

import (
	"crypto/hmac"
	"encoding/binary"
	"fmt"

	"repro/internal/crypto/det"
	"repro/internal/crypto/prf"
)

// blockSize is the searchable ciphertext width: sHalf stream bytes plus
// tHalf check bytes.
const (
	sHalf     = 16
	tHalf     = 16
	blockSize = sHalf + tHalf
)

// Scheme is an SWP searchable encryption scheme. Safe for concurrent
// use. Construct with New or NewFromSeed.
type Scheme struct {
	pre    *det.Scheme // deterministic pre-encryption of words
	seed   *prf.PRF    // stream generator
	wordKD *prf.PRF    // word-key derivation
}

// New returns a scheme keyed by a 32-byte master key.
func New(master []byte) (*Scheme, error) {
	if len(master) != 32 {
		return nil, fmt.Errorf("swp: master key must be 32 bytes, got %d", len(master))
	}
	root := prf.New(master)
	pre, err := det.New(root.Eval([]byte("swp-pre"))[:32])
	if err != nil {
		return nil, err
	}
	return &Scheme{
		pre:    pre,
		seed:   root.Derive("swp-seed"),
		wordKD: root.Derive("swp-wordkey"),
	}, nil
}

// NewFromSeed derives the master key from an arbitrary seed.
func NewFromSeed(seed []byte) *Scheme {
	s, err := New(prf.New(seed).Eval([]byte("swp-master")))
	if err != nil {
		panic(err) // unreachable: key size correct by construction
	}
	return s
}

// preimage computes the fixed-width deterministic pre-encryption X of a
// word by hashing the DET ciphertext to blockSize bytes.
func (s *Scheme) preimage(word string) []byte {
	ct := s.pre.EncryptString(word)
	// Compress to the fixed block width with a PRF (still deterministic
	// and collision-resistant for our purposes).
	return s.wordKD.EvalParts([]byte("X"), ct)[:blockSize]
}

// wordKey derives k_w from the left half of X.
func (s *Scheme) wordKey(x []byte) *prf.PRF {
	return prf.New(s.wordKD.EvalParts([]byte("kw"), x[:sHalf]))
}

// streamBlock returns S_i for position i.
func (s *Scheme) streamBlock(i uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], i)
	return s.seed.EvalParts([]byte("S"), buf[:])[:sHalf]
}

// Encrypt produces the searchable ciphertext of word at stream position
// i. Equal words at different positions yield different ciphertexts
// (position-randomized), yet remain findable via one trapdoor.
func (s *Scheme) Encrypt(word string, i uint64) []byte {
	x := s.preimage(word)
	si := s.streamBlock(i)
	kw := s.wordKey(x)
	ti := kw.Eval(si)[:tHalf]
	out := make([]byte, blockSize)
	copy(out, si)
	copy(out[sHalf:], ti)
	for j := range out {
		out[j] ^= x[j]
	}
	return out
}

// Trapdoor authorizes searching for one word. It reveals nothing about
// other words.
type Trapdoor struct {
	x  []byte
	kw *prf.PRF
}

// Trapdoor issues the search token for word.
func (s *Scheme) Trapdoor(word string) Trapdoor {
	x := s.preimage(word)
	return Trapdoor{x: x, kw: s.wordKey(x)}
}

// Matches tests whether ciphertext ct was produced from the trapdoor's
// word (at any position). It uses no secret state beyond the trapdoor.
func (t Trapdoor) Matches(ct []byte) bool {
	if len(ct) != blockSize {
		return false
	}
	buf := make([]byte, blockSize)
	for j := range buf {
		buf[j] = ct[j] ^ t.x[j]
	}
	want := t.kw.Eval(buf[:sHalf])[:tHalf]
	return hmac.Equal(buf[sHalf:], want)
}

// Search scans a ciphertext stream and returns the matching positions.
func (t Trapdoor) Search(cts [][]byte) []int {
	var out []int
	for i, ct := range cts {
		if t.Matches(ct) {
			out = append(out, i)
		}
	}
	return out
}
