// Package prob implements the PROB (probabilistic) encryption class of the
// paper's taxonomy (Fig. 1): two encryptions of equal plaintexts are, with
// overwhelming probability, different ciphertexts.
//
// The instance is AES-256-GCM with a random nonce, i.e. an IND-CPA-secure
// authenticated scheme, standing in for the "randomized AES" instance the
// paper cites [12]. Ciphertext layout: nonce || GCM(plaintext).
package prob

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// KeySize is the AES-256 key size in bytes.
const KeySize = 32

// ErrDecrypt is returned when a ciphertext fails authentication or is
// structurally invalid.
var ErrDecrypt = errors.New("prob: decryption failed")

// Scheme is a probabilistic authenticated encryption scheme.
// It is safe for concurrent use. The zero value is unusable; construct
// with New or NewFromSeed.
type Scheme struct {
	aead cipher.AEAD
	rand io.Reader
}

// New returns a Scheme keyed with key, which must be KeySize bytes.
// Nonces are drawn from crypto/rand.
func New(key []byte) (*Scheme, error) {
	return newWithRand(key, rand.Reader)
}

// NewFromSeed derives a KeySize key from an arbitrary seed by hashing and
// returns the corresponding Scheme. Intended for tests and deterministic
// key hierarchies; the nonce source remains crypto/rand, so encryption is
// still probabilistic.
func NewFromSeed(seed []byte) *Scheme {
	sum := sha256.Sum256(append([]byte("prob-seed:"), seed...))
	s, err := New(sum[:])
	if err != nil {
		// Unreachable: the key size is correct by construction.
		panic(err)
	}
	return s
}

func newWithRand(key []byte, r io.Reader) (*Scheme, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("prob: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("prob: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("prob: %w", err)
	}
	return &Scheme{aead: aead, rand: r}, nil
}

// Encrypt returns nonce || GCM ciphertext for plaintext.
func (s *Scheme) Encrypt(plaintext []byte) ([]byte, error) {
	nonce := make([]byte, s.aead.NonceSize())
	if _, err := io.ReadFull(s.rand, nonce); err != nil {
		return nil, fmt.Errorf("prob: nonce: %w", err)
	}
	return s.aead.Seal(nonce, nonce, plaintext, nil), nil
}

// Decrypt inverts Encrypt, returning ErrDecrypt on any malformed or
// tampered ciphertext.
func (s *Scheme) Decrypt(ciphertext []byte) ([]byte, error) {
	ns := s.aead.NonceSize()
	if len(ciphertext) < ns {
		return nil, ErrDecrypt
	}
	pt, err := s.aead.Open(nil, ciphertext[:ns], ciphertext[ns:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}
