// Package ope implements the OPE (order-preserving encryption) class of
// the paper's taxonomy (Fig. 1): a deterministic encryption of integers
// such that m1 < m2 implies Enc(m1) < Enc(m2). Order comparisons — and
// hence range predicates and access-area overlap tests (Definition 5) —
// can be evaluated directly on ciphertexts.
//
// Two constructions are provided, selected via Params:
//
//   - Binary-splitting mode (default): a keyed random order-preserving
//     function from [0, 2^DomainBits) into [0, 2^(DomainBits+ExpansionBits)),
//     built by recursively splitting the domain at its midpoint and
//     choosing the corresponding range split point uniformly (with PRF
//     coins) among all positions that leave both halves feasible. This is
//     stateless, deterministic, strictly order-preserving, and runs in
//     O(DomainBits) PRF calls per operation for any 64-bit domain.
//
//   - Hypergeometric mode: the Boldyreva et al. construction [2], [13] —
//     a uniformly random order-preserving function sampled lazily by
//     recursing over the range and drawing the number of plaintexts
//     mapped below the range midpoint from the exact hypergeometric
//     distribution. Exact sequential sampling keeps it practical for
//     small domains (DomainBits+ExpansionBits <= 30); it exists to be
//     faithful to the paper's citation, not for throughput.
//
// Both constructions leak exactly what the OPE class is defined to leak:
// equality and order. Ciphertexts are fixed-width big-endian byte strings,
// so bytes.Compare on ciphertexts equals the numeric (and hence
// plaintext) order.
package ope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/crypto/prf"
)

// Params configures an OPE scheme.
type Params struct {
	// DomainBits is the plaintext width: plaintexts lie in [0, 2^DomainBits).
	// Must be in [1, 64].
	DomainBits uint
	// ExpansionBits is the extra ciphertext width beyond DomainBits.
	// Must be >= 1. The ciphertext range is [0, 2^(DomainBits+ExpansionBits)).
	ExpansionBits uint
	// Hypergeometric selects the faithful Boldyreva construction. It
	// requires DomainBits+ExpansionBits <= 30.
	Hypergeometric bool
}

// DefaultParams returns the parameters used throughout this repository:
// full 64-bit domain, 16 bits of expansion, binary-splitting mode.
func DefaultParams() Params {
	return Params{DomainBits: 64, ExpansionBits: 16}
}

// ErrDecrypt is returned when a ciphertext is not in the image of the
// order-preserving function (malformed or wrong key).
var ErrDecrypt = errors.New("ope: invalid ciphertext")

// maxHGBits bounds range width in hypergeometric mode; beyond this the
// exact sequential sampler becomes impractically slow.
const maxHGBits = 30

// Scheme is an order-preserving encryption scheme. It is safe for
// concurrent use. Construct with New or NewFromSeed.
type Scheme struct {
	prf       *prf.PRF
	params    Params
	domainMax *big.Int // 2^DomainBits - 1
	rangeMax  *big.Int // 2^(DomainBits+ExpansionBits) - 1
	ctLen     int      // ciphertext width in bytes
}

// New returns an OPE scheme keyed with key under the given parameters.
func New(key []byte, p Params) (*Scheme, error) {
	if p.DomainBits < 1 || p.DomainBits > 64 {
		return nil, fmt.Errorf("ope: DomainBits must be in [1,64], got %d", p.DomainBits)
	}
	if p.ExpansionBits < 1 {
		return nil, fmt.Errorf("ope: ExpansionBits must be >= 1, got %d", p.ExpansionBits)
	}
	rangeBits := p.DomainBits + p.ExpansionBits
	if p.Hypergeometric && rangeBits > maxHGBits {
		return nil, fmt.Errorf("ope: hypergeometric mode requires DomainBits+ExpansionBits <= %d, got %d", maxHGBits, rangeBits)
	}
	one := big.NewInt(1)
	domainMax := new(big.Int).Lsh(one, p.DomainBits)
	domainMax.Sub(domainMax, one)
	rangeMax := new(big.Int).Lsh(one, rangeBits)
	rangeMax.Sub(rangeMax, one)
	return &Scheme{
		prf:       prf.New(key).Derive("ope"),
		params:    p,
		domainMax: domainMax,
		rangeMax:  rangeMax,
		ctLen:     int((rangeBits + 7) / 8),
	}, nil
}

// NewFromSeed derives a key from seed and returns a scheme with
// DefaultParams. It panics only on internal invariant violation.
func NewFromSeed(seed []byte) *Scheme {
	s, err := New(prf.New(seed).Eval([]byte("ope-seed")), DefaultParams())
	if err != nil {
		panic(err) // unreachable: DefaultParams is always valid
	}
	return s
}

// Params returns the scheme's parameters.
func (s *Scheme) Params() Params { return s.params }

// Compare compares two ciphertexts; because ciphertexts are fixed-width
// big-endian, this equals the plaintext order.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// Encrypt maps plaintext m to its fixed-width ciphertext. It returns an
// error if m is outside the configured domain.
func (s *Scheme) Encrypt(m uint64) ([]byte, error) {
	mb := new(big.Int).SetUint64(m)
	if mb.Cmp(s.domainMax) > 0 {
		return nil, fmt.Errorf("ope: plaintext %d exceeds %d-bit domain", m, s.params.DomainBits)
	}
	var c *big.Int
	if s.params.Hypergeometric {
		c = s.encryptHG(m)
	} else {
		c = s.encryptSplit(m)
	}
	out := make([]byte, s.ctLen)
	c.FillBytes(out)
	return out, nil
}

// Decrypt inverts Encrypt. It returns ErrDecrypt when c is not a valid
// ciphertext under this key.
func (s *Scheme) Decrypt(c []byte) (uint64, error) {
	if len(c) != s.ctLen {
		return 0, ErrDecrypt
	}
	cb := new(big.Int).SetBytes(c)
	if cb.Cmp(s.rangeMax) > 0 {
		return 0, ErrDecrypt
	}
	if s.params.Hypergeometric {
		return s.decryptHG(cb)
	}
	return s.decryptSplit(cb)
}

// nodeCoins returns the deterministic coin source for the recursion node
// identified by the domain interval [dlo, dhi] and range low bound rlo.
// Binding all three makes coins unique per node even across modes.
func (s *Scheme) nodeCoins(kind byte, dlo, dhi uint64, rlo, rhi *big.Int) *prf.DRBG {
	var buf [17]byte
	buf[0] = kind
	binary.BigEndian.PutUint64(buf[1:9], dlo)
	binary.BigEndian.PutUint64(buf[9:17], dhi)
	label := append(buf[:], rlo.Bytes()...)
	label = append(label, 0xFE)
	label = append(label, rhi.Bytes()...)
	return prf.NewDRBGFromPRF(s.prf, label)
}

// sampleLeaf deterministically places the single domain value dlo at a
// uniform position within [rlo, rhi].
func (s *Scheme) sampleLeaf(dlo uint64, rlo, rhi *big.Int) *big.Int {
	span := new(big.Int).Sub(rhi, rlo)
	span.Add(span, big.NewInt(1))
	coins := s.nodeCoins('L', dlo, dlo, rlo, rhi)
	return new(big.Int).Add(rlo, coins.BigIntn(span))
}

// --- binary-splitting mode ---

// encryptSplit walks the implicit balanced domain tree. At each node the
// domain [dlo,dhi] is split at its midpoint; the range split point is
// drawn uniformly among all positions leaving both halves with at least
// as many range values as domain values, which preserves the recursion
// invariant |range| >= |domain|.
func (s *Scheme) encryptSplit(m uint64) *big.Int {
	dlo, dhi := uint64(0), s.domainMax.Uint64()
	rlo, rhi := new(big.Int), new(big.Int).Set(s.rangeMax)
	for dlo < dhi {
		dmid, rmid := s.splitPoint(dlo, dhi, rlo, rhi)
		if m <= dmid {
			dhi = dmid
			rhi = rmid
		} else {
			dlo = dmid + 1
			rlo = new(big.Int).Add(rmid, big.NewInt(1))
		}
	}
	return s.sampleLeaf(dlo, rlo, rhi)
}

func (s *Scheme) decryptSplit(c *big.Int) (uint64, error) {
	dlo, dhi := uint64(0), s.domainMax.Uint64()
	rlo, rhi := new(big.Int), new(big.Int).Set(s.rangeMax)
	if c.Cmp(rlo) < 0 || c.Cmp(rhi) > 0 {
		return 0, ErrDecrypt
	}
	for dlo < dhi {
		_, rmid := s.splitPoint(dlo, dhi, rlo, rhi)
		dmid := dlo + (dhi-dlo)/2
		if c.Cmp(rmid) <= 0 {
			dhi = dmid
			rhi = rmid
		} else {
			dlo = dmid + 1
			rlo = new(big.Int).Add(rmid, big.NewInt(1))
		}
	}
	if s.sampleLeaf(dlo, rlo, rhi).Cmp(c) != 0 {
		return 0, ErrDecrypt
	}
	return dlo, nil
}

// splitPoint computes the domain midpoint dmid and the corresponding
// deterministic range split rmid for a node. The left subtree receives
// domain [dlo,dmid] and range [rlo,rmid]; feasibility requires
// rmid in [rlo+L-1, rhi-R] where L and R are the halves' domain sizes.
func (s *Scheme) splitPoint(dlo, dhi uint64, rlo, rhi *big.Int) (uint64, *big.Int) {
	dmid := dlo + (dhi-dlo)/2
	l := new(big.Int).SetUint64(dmid - dlo + 1) // left domain size
	r := new(big.Int).SetUint64(dhi - dmid)     // right domain size
	lo := new(big.Int).Add(rlo, l)
	lo.Sub(lo, big.NewInt(1)) // rlo + L - 1
	hi := new(big.Int).Sub(rhi, r)
	span := new(big.Int).Sub(hi, lo)
	span.Add(span, big.NewInt(1))
	coins := s.nodeCoins('S', dlo, dhi, rlo, rhi)
	rmid := coins.BigIntn(span)
	rmid.Add(rmid, lo)
	return dmid, rmid
}

// --- hypergeometric (Boldyreva) mode ---

// encryptHG implements the lazy-sampling recursion of Boldyreva et al.:
// recurse on the range, drawing x ~ HG(N, M, d) — the number of the M
// plaintexts mapped to the d lowest range positions — with exact
// sequential sampling.
func (s *Scheme) encryptHG(m uint64) *big.Int {
	dlo, dhi := uint64(0), s.domainMax.Uint64()
	rlo, rhi := uint64(0), s.rangeMax.Uint64()
	for {
		M := dhi - dlo + 1
		N := rhi - rlo + 1
		if M == 1 {
			return s.sampleLeaf(dlo, new(big.Int).SetUint64(rlo), new(big.Int).SetUint64(rhi))
		}
		if M == N {
			// Every range position hosts exactly one plaintext.
			return new(big.Int).SetUint64(rlo + (m - dlo))
		}
		y := rlo + (N / 2) - 1 // range gap: last position of the lower half
		d := y - rlo + 1
		x := s.sampleHG(dlo, dhi, rlo, rhi, N, M, d)
		switch {
		case x == 0:
			// No plaintext maps at or below y: everything goes right.
			rlo = y + 1
		case x == M:
			// Every plaintext maps at or below y: everything goes left.
			rhi = y
		case m <= dlo+x-1:
			// m is among the x lowest plaintexts, which occupy [rlo, y].
			dhi = dlo + x - 1
			rhi = y
		default:
			dlo = dlo + x
			rlo = y + 1
		}
	}
}

func (s *Scheme) decryptHG(c *big.Int) (uint64, error) {
	cv := c.Uint64()
	dlo, dhi := uint64(0), s.domainMax.Uint64()
	rlo, rhi := uint64(0), s.rangeMax.Uint64()
	for {
		M := dhi - dlo + 1
		N := rhi - rlo + 1
		if M == 1 {
			leaf := s.sampleLeaf(dlo, new(big.Int).SetUint64(rlo), new(big.Int).SetUint64(rhi))
			if leaf.Uint64() != cv {
				return 0, ErrDecrypt
			}
			return dlo, nil
		}
		if M == N {
			return dlo + (cv - rlo), nil
		}
		y := rlo + (N / 2) - 1
		d := y - rlo + 1
		x := s.sampleHG(dlo, dhi, rlo, rhi, N, M, d)
		if cv <= y {
			if x == 0 {
				return 0, ErrDecrypt // no plaintext maps below y
			}
			dhi = dlo + x - 1
			rhi = y
		} else {
			if x == M {
				return 0, ErrDecrypt // all plaintexts map below y
			}
			dlo = dlo + x
			rlo = y + 1
		}
	}
}

// sampleHG draws x ~ Hypergeometric(population N, successes M, draws d)
// exactly, using node-bound deterministic coins. By the symmetry
// HG(N, M, d) == HG(N, d, M) it iterates over min(M, d) sequential draws,
// each an exact integer Bernoulli trial without replacement.
func (s *Scheme) sampleHG(dlo, dhi, rlo, rhi, N, M, d uint64) uint64 {
	coins := s.nodeCoins('H', dlo, dhi, new(big.Int).SetUint64(rlo), new(big.Int).SetUint64(rhi))
	draws, successes := d, M
	if successes < draws {
		draws, successes = successes, draws
	}
	// draws is now min(M, d); successes is the marked-ball count.
	var x uint64
	for i := uint64(0); i < draws; i++ {
		if coins.Uint64n(N-i) < successes-x {
			x++
		}
	}
	return x
}
