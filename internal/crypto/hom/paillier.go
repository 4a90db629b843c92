// Package hom implements the HOM (additively homomorphic) encryption
// class of the paper's taxonomy (Fig. 1) as the Paillier cryptosystem
// [11]: a probabilistic public-key scheme where the product of two
// ciphertexts decrypts to the sum of their plaintexts, so SUM and AVG
// aggregates can be computed server-side over encrypted columns.
//
// The implementation is the textbook scheme with the standard g = n+1
// simplification, over math/big:
//
//	KeyGen: n = p·q, λ = lcm(p−1, q−1), μ = L(g^λ mod n²)^(−1) mod n
//	Enc(m): c = (1+n)^m · r^n mod n²  (r uniform in Z_n^*)
//	Dec(c): m = L(c^λ mod n²) · μ mod n, where L(u) = (u−1)/n
//	Add:    c1 ⊕ c2 = c1·c2 mod n²
//	MulConst: c ⊗ k = c^k mod n²
//
// Signed plaintexts are supported by centering: values in (−n/2, n/2]
// are encoded mod n and decoded back to the symmetric interval, so sums
// of negative numbers round-trip.
package hom

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// DefaultBits is the default modulus size. 1024 is small by modern
// deployment standards but ample for a reproduction study; use 2048+ in
// production.
const DefaultBits = 1024

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// ErrDecrypt is returned for ciphertexts outside Z_{n²} or not invertible.
var ErrDecrypt = errors.New("hom: invalid ciphertext")

// ErrMessageRange is returned when a plaintext exceeds the signed message
// space (−n/2, n/2].
var ErrMessageRange = errors.New("hom: plaintext outside message space")

// PublicKey supports encryption and the homomorphic operations.
type PublicKey struct {
	N  *big.Int // modulus n = p·q
	N2 *big.Int // n²
}

// PrivateKey additionally supports decryption.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p−1, q−1)
	mu     *big.Int // L(g^λ mod n²)^(−1) mod n
	crt    *crtKey  // CRT-split decryption state; nil on NoCRT copies
}

// CheckBits returns the error GenerateKey gives for a modulus size it
// rejects, and nil for one it accepts.
func CheckBits(bits int) error {
	if bits < 64 {
		return fmt.Errorf("hom: modulus size %d too small (min 64)", bits)
	}
	return nil
}

// GenerateKey creates a Paillier key pair with an n of the given bit
// size, drawing primes from random (use crypto/rand.Reader in
// production; a deterministic reader yields reproducible keys for tests).
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if err := CheckBits(bits); err != nil {
		return nil, err
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		p, err := genPrime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("hom: prime generation: %w", err)
		}
		q, err := genPrime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("hom: prime generation: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), gcd)
		n2 := new(big.Int).Mul(n, n)
		// With g = n+1: g^λ mod n² = 1 + λ·n mod n², so
		// L(g^λ) = λ mod n and μ = λ^(−1) mod n.
		mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
		if mu == nil {
			continue // λ not invertible mod n (requires gcd(λ, n) ≠ 1; retry)
		}
		sk := &PrivateKey{
			PublicKey: PublicKey{N: n, N2: n2},
			lambda:    lambda,
			mu:        mu,
		}
		sk.crt = newCRTKey(p, q, n)
		if sk.crt == nil {
			continue // a CRT inverse did not exist; retry with fresh primes
		}
		return sk, nil
	}
}

// genPrime draws uniform odd candidates of exactly the given bit length
// from random and returns the first probable prime. Unlike
// crypto/rand.Prime it is strictly deterministic in the bytes consumed
// from random, which lets tests and key hierarchies reproduce keys from a
// DRBG stream.
func genPrime(random io.Reader, bits int) (*big.Int, error) {
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	topMask := byte(0xff >> (uint(bytes*8 - bits)))
	topBit := byte(1 << (uint(bits-1) % 8))
	p := new(big.Int)
	for {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, err
		}
		buf[0] &= topMask
		buf[0] |= topBit     // exact bit length
		buf[len(buf)-1] |= 1 // odd
		p.SetBytes(buf)
		if p.ProbablyPrime(20) {
			return new(big.Int).Set(p), nil
		}
	}
}

// MessageSpaceHalf returns n/2, the magnitude bound for signed plaintexts.
func (pk *PublicKey) MessageSpaceHalf() *big.Int {
	return new(big.Int).Div(pk.N, two)
}

// encode maps a signed plaintext into Z_n; it returns ErrMessageRange if
// |m| > n/2.
func (pk *PublicKey) encode(m *big.Int) (*big.Int, error) {
	half := pk.MessageSpaceHalf()
	if new(big.Int).Abs(m).Cmp(half) > 0 {
		return nil, ErrMessageRange
	}
	return new(big.Int).Mod(m, pk.N), nil
}

// Encrypt encrypts the signed plaintext m with fresh randomness from
// random (nil means crypto/rand.Reader).
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	enc, err := pk.encode(m)
	if err != nil {
		return nil, err
	}
	r, err := pk.sampleUnit(random)
	if err != nil {
		return nil, err
	}
	// c = (1+n)^m · r^n = (1 + m·n) · r^n mod n².
	c := new(big.Int).Mul(enc, pk.N)
	c.Add(c, one)
	c.Mod(c, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c.Mul(c, rn)
	c.Mod(c, pk.N2)
	return c, nil
}

// EncryptInt64 is a convenience wrapper for int64 plaintexts.
func (pk *PublicKey) EncryptInt64(random io.Reader, m int64) (*big.Int, error) {
	return pk.Encrypt(random, big.NewInt(m))
}

// sampleUnit draws r uniform in Z_n^*.
func (pk *PublicKey) sampleUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("hom: randomness: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Add returns the ciphertext of m1+m2 given ciphertexts of m1 and m2.
func (pk *PublicKey) Add(c1, c2 *big.Int) *big.Int {
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, pk.N2)
}

// Sum folds Add over the given ciphertexts; it returns an encryption of 0
// (deterministically, with r=1) when the list is empty.
func (pk *PublicKey) Sum(cs ...*big.Int) *big.Int {
	acc := big.NewInt(1) // (1+n)^0 · 1^n = 1: a valid encryption of 0
	for _, c := range cs {
		acc.Mul(acc, c)
		acc.Mod(acc, pk.N2)
	}
	return acc
}

// MulConst returns the ciphertext of k·m given a ciphertext of m.
// Negative k is supported via modular inversion.
func (pk *PublicKey) MulConst(c *big.Int, k *big.Int) *big.Int {
	if k.Sign() < 0 {
		inv := new(big.Int).ModInverse(c, pk.N2)
		return new(big.Int).Exp(inv, new(big.Int).Neg(k), pk.N2)
	}
	return new(big.Int).Exp(c, k, pk.N2)
}

// Rerandomize multiplies in a fresh encryption of zero, changing the
// ciphertext without changing the plaintext.
func (pk *PublicKey) Rerandomize(random io.Reader, c *big.Int) (*big.Int, error) {
	zero, err := pk.Encrypt(random, new(big.Int))
	if err != nil {
		return nil, err
	}
	return pk.Add(c, zero), nil
}

// Decrypt returns the signed plaintext of c, decoded into (−n/2, n/2].
// Keys from GenerateKey decrypt via the CRT split (see batch.go), about
// 4x faster than the textbook single exponentiation; NoCRT copies fall
// back to the textbook path. Both return identical plaintexts.
func (sk *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if c == nil || c.Sign() <= 0 || c.Cmp(sk.N2) >= 0 {
		return nil, ErrDecrypt
	}
	if new(big.Int).GCD(nil, nil, c, sk.N2).Cmp(one) != 0 {
		return nil, ErrDecrypt
	}
	if sk.crt != nil {
		return sk.decode(sk.crt.decrypt(c)), nil
	}
	u := new(big.Int).Exp(c, sk.lambda, sk.N2)
	// L(u) = (u−1)/n
	u.Sub(u, one)
	u.Div(u, sk.N)
	m := u.Mul(u, sk.mu)
	m.Mod(m, sk.N)
	return sk.decode(m), nil
}

// decode maps a residue in Z_n to its signed representative in
// (−n/2, n/2].
func (sk *PrivateKey) decode(m *big.Int) *big.Int {
	if m.Cmp(sk.MessageSpaceHalf()) > 0 {
		m.Sub(m, sk.N)
	}
	return m
}

// DecryptInt64 decrypts and narrows to int64, failing if out of range.
func (sk *PrivateKey) DecryptInt64(c *big.Int) (int64, error) {
	m, err := sk.Decrypt(c)
	if err != nil {
		return 0, err
	}
	if !m.IsInt64() {
		return 0, fmt.Errorf("hom: plaintext %v overflows int64", m)
	}
	return m.Int64(), nil
}
