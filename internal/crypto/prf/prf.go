// Package prf provides the deterministic randomness substrate used by the
// property-preserving encryption classes in this repository.
//
// All schemes that must be deterministic (DET, OPE) derive their coins from
// a keyed pseudo-random function (HMAC-SHA256) rather than from the system
// randomness source. The package offers three layers:
//
//   - PRF: a fixed-output-length keyed function,
//   - DRBG: an unbounded deterministic byte stream seeded by (key, label),
//   - samplers: uniform integers in arbitrary ranges, drawn from a DRBG
//     using rejection sampling so the distribution is exactly uniform.
package prf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// Size is the output size in bytes of the PRF.
const Size = sha256.Size

// PRF is a keyed pseudo-random function based on HMAC-SHA256.
// The zero value is unusable; construct with New.
type PRF struct {
	key []byte
}

// New returns a PRF keyed with key. The key is copied.
func New(key []byte) *PRF {
	k := make([]byte, len(key))
	copy(k, key)
	return &PRF{key: k}
}

// Eval returns HMAC-SHA256(key, input). The result is a fresh slice of
// length Size.
func (p *PRF) Eval(input []byte) []byte {
	mac := hmac.New(sha256.New, p.key)
	mac.Write(input)
	return mac.Sum(nil)
}

// EvalParts evaluates the PRF over the concatenation of the given parts,
// with each part length-prefixed so that distinct part boundaries can never
// collide ("ab","c" never equals "a","bc").
func (p *PRF) EvalParts(parts ...[]byte) []byte {
	mac := hmac.New(sha256.New, p.key)
	var lenBuf [8]byte
	for _, part := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(part)))
		mac.Write(lenBuf[:])
		mac.Write(part)
	}
	return mac.Sum(nil)
}

// Derive returns a subkey bound to the given label. It implements a
// simple HKDF-expand-like derivation: HMAC(key, "derive" || label).
func (p *PRF) Derive(label string) *PRF {
	return New(p.EvalParts([]byte("derive"), []byte(label)))
}

// DRBG is a deterministic random byte generator: counter-mode expansion of
// a PRF. Two DRBGs constructed from the same key and label produce the
// same stream. DRBG is not safe for concurrent use.
type DRBG struct {
	prf     *PRF
	label   []byte
	counter uint64
	buf     []byte
	off     int
}

// NewDRBG returns a DRBG seeded by key and label.
func NewDRBG(key []byte, label []byte) *DRBG {
	l := make([]byte, len(label))
	copy(l, label)
	return &DRBG{prf: New(key), label: l}
}

// NewDRBGFromPRF returns a DRBG drawing from an existing PRF under label.
func NewDRBGFromPRF(p *PRF, label []byte) *DRBG {
	l := make([]byte, len(label))
	copy(l, label)
	return &DRBG{prf: p, label: l}
}

func (d *DRBG) refill() {
	var ctr [8]byte
	binary.BigEndian.PutUint64(ctr[:], d.counter)
	d.counter++
	d.buf = d.prf.EvalParts([]byte("drbg"), d.label, ctr[:])
	d.off = 0
}

// Read fills p with deterministic pseudo-random bytes. It never fails.
func (d *DRBG) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if d.off >= len(d.buf) {
			d.refill()
		}
		c := copy(p, d.buf[d.off:])
		d.off += c
		p = p[c:]
	}
	return n, nil
}

// Uint64 returns the next 8 stream bytes as a big-endian uint64.
func (d *DRBG) Uint64() uint64 {
	var b [8]byte
	d.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Rejection sampling makes the distribution exactly uniform.
func (d *DRBG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prf: Uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two
		return d.Uint64() & (n - 1)
	}
	// Largest multiple of n that fits in a uint64.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := d.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Int64Range returns a uniform value in [lo, hi]. It panics if lo > hi.
func (d *DRBG) Int64Range(lo, hi int64) int64 {
	if lo > hi {
		panic("prf: Int64Range with lo > hi")
	}
	span := uint64(hi-lo) + 1
	if span == 0 { // full range
		return int64(d.Uint64())
	}
	return lo + int64(d.Uint64n(span))
}

// BigIntn returns a uniform big.Int in [0, n). It panics if n <= 0.
func (d *DRBG) BigIntn(n *big.Int) *big.Int {
	if n.Sign() <= 0 {
		panic("prf: BigIntn with n <= 0")
	}
	bits := n.BitLen()
	bytes := (bits + 7) / 8
	mask := byte(0xff >> (uint(bytes*8 - bits)))
	buf := make([]byte, bytes)
	v := new(big.Int)
	for {
		d.Read(buf)
		buf[0] &= mask
		v.SetBytes(buf)
		if v.Cmp(n) < 0 {
			return new(big.Int).Set(v)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (d *DRBG) Float64() float64 {
	return float64(d.Uint64()>>11) / float64(1<<53)
}
