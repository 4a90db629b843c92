// Package encdb is the CryptDB-style substrate of the reproduction: it
// encrypts SQL query logs and database contents with the
// property-preserving classes of internal/crypto, rewrites queries to run
// over the encrypted data, executes them with internal/db, and decrypts
// results.
//
// The paper's high-level encryption scheme for SQL logs (Section IV-A) is
// the tuple (EncRel, EncAttr, {EncA.Const : Attribute A}): one encryption
// function for relation names, one for attribute names, and one per
// attribute for constants. Table I instantiates the classes of those
// functions per distance measure; the Mode type mirrors those rows.
//
// Encrypted column storage follows CryptDB's onion idea flattened into
// sibling columns: a logical column c becomes physical columns
// c_det (equality), c_ope (order, numeric only), c_hom (Paillier,
// numeric only), and c_prob (storage). The rewriter picks the sibling
// that supports each operation.
package encdb

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/crypto/det"
	"repro/internal/crypto/hom"
	"repro/internal/crypto/keys"
	"repro/internal/crypto/ope"
	"repro/internal/crypto/prf"
	"repro/internal/crypto/prob"
	"repro/internal/value"
)

// Mode selects the DPE-scheme of a Table I row.
type Mode int

// The four schemes of Table I.
const (
	// ModeToken: token equivalence — EncRel, EncAttr and every
	// EncA.Const from the DET class.
	ModeToken Mode = iota
	// ModeStructure: structural equivalence — names DET, constants PROB.
	ModeStructure
	// ModeResult: result equivalence — names DET, constants via the
	// CryptDB onion that supports each operation (DET for equality,
	// OPE for order, HOM for aggregation).
	ModeResult
	// ModeAccessArea: access-area equivalence — names DET, predicate
	// constants OPE (CryptDB's order onion), and constants of attributes
	// that occur only inside SELECT aggregates PROB instead of HOM
	// (the Section IV-C refinement).
	ModeAccessArea
	// ModeResultDETOnly is an ablation of ModeResult that forces every
	// constant and onion to DET — a CryptDB deployment without OPE/HOM
	// onions. Range predicates then compare DET ciphertexts, whose order
	// is unrelated to plaintext order; the Table I experiment uses this
	// to show empirically why the composite assignment is necessary.
	ModeResultDETOnly
)

func (m Mode) String() string {
	switch m {
	case ModeToken:
		return "token"
	case ModeStructure:
		return "structure"
	case ModeResult:
		return "result"
	case ModeAccessArea:
		return "access-area"
	case ModeResultDETOnly:
		return "result-det-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Deployment owns every key and scheme of one encrypted installation.
// Construct with NewDeployment and declare joins (DeclareJoins) before
// encrypting; after that it is safe for concurrent use.
//
// Only the name schemes are keyed at construction. Column schemes are
// built on a column's first constant and kept. The HOM (Paillier) key
// pair and its fixed-base encryptor are derived from the master secret
// on first use: by EncryptCatalog's HOM columns, Aggregator,
// AggregatorKey, Paillier, or the decryption of a SUM or AVG result.
// A deployment that encrypts only logs and domains never generates it.
type Deployment struct {
	km        *keys.Manager
	relNames  nameMemo
	attrNames nameMemo
	opeParams ope.Params

	homBits  int
	homOnce  sync.Once
	paillier *hom.PrivateKey // set by homOnce
	homEnc   *hom.Encryptor  // set by homOnce

	// caches keyed by column id + class
	schemes schemeCache
}

// Config tunes a Deployment.
type Config struct {
	// PaillierBits sizes the HOM modulus; 0 means hom.DefaultBits.
	// NewDeployment rejects a size the key generator would, but the key
	// pair itself is derived on first use. Tests use smaller keys for
	// speed.
	PaillierBits int
	// OPEParams overrides the OPE parameters; zero value means
	// ope.DefaultParams().
	OPEParams ope.Params
}

// NewDeployment derives the name schemes from the master secret and
// checks cfg; every other key is derived from the same secret when
// first needed.
func NewDeployment(master []byte, cfg Config) (*Deployment, error) {
	km := keys.NewManager(master)
	rel, err := det.New(km.RelationKey())
	if err != nil {
		return nil, fmt.Errorf("encdb: relation scheme: %w", err)
	}
	attr, err := det.New(km.AttributeKey())
	if err != nil {
		return nil, fmt.Errorf("encdb: attribute scheme: %w", err)
	}
	bits := cfg.PaillierBits
	if bits == 0 {
		bits = hom.DefaultBits
	}
	if err := hom.CheckBits(bits); err != nil {
		return nil, fmt.Errorf("encdb: paillier: %w", err)
	}
	opeParams := cfg.OPEParams
	if opeParams == (ope.Params{}) {
		opeParams = ope.DefaultParams()
	}
	d := &Deployment{
		km:        km,
		relNames:  nameMemo{scheme: rel, enc: make(map[string]string)},
		attrNames: nameMemo{scheme: attr, enc: make(map[string]string)},
		opeParams: opeParams,
		homBits:   bits,
	}
	d.schemes.init()
	return d, nil
}

// MustNewDeployment panics on error; for tests and examples.
func MustNewDeployment(master []byte, cfg Config) *Deployment {
	d, err := NewDeployment(master, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Keys exposes the key manager (e.g. to declare join groups before
// encrypting).
func (d *Deployment) Keys() *keys.Manager { return d.km }

// Paillier exposes the HOM key pair (public part used by the encrypted
// executor's aggregator), deriving it on first use.
func (d *Deployment) Paillier() *hom.PrivateKey {
	sk, _ := d.hom()
	return sk
}

// hom returns the HOM key pair and its encryptor, deriving both on the
// first call. Both are reproducible from the master secret, so the
// first call's timing cannot change them.
func (d *Deployment) hom() (*hom.PrivateKey, *hom.Encryptor) {
	d.homOnce.Do(func() {
		sk, err := hom.GenerateKey(prf.NewDRBG(d.km.HomSeed(), []byte("paillier")), d.homBits)
		if err != nil {
			panic(err) // unreachable: NewDeployment checked the bits, and a DRBG never fails
		}
		// The fixed-base window table turns every HOM column encryption
		// into table multiplications instead of a full r^n
		// exponentiation. Its base is derived from the master secret
		// too; per-value randomness is still drawn fresh at Encrypt time.
		enc, err := sk.NewEncryptor(prf.NewDRBG(d.km.HomSeed(), []byte("paillier-encryptor")))
		if err != nil {
			panic(err) // unreachable: a DRBG never fails
		}
		d.paillier, d.homEnc = sk, enc
	})
	return d.paillier, d.homEnc
}

// --- name encryption (EncRel / EncAttr) ---

// namePrefix distinguishes encrypted identifiers; hex may start with a
// digit, which would not lex as an identifier.
const namePrefix = "e"

// maxMemoNames caps each name memo. A schema and the aliases of its
// queries name far fewer identifiers; past the cap a name is encrypted
// without being stored, so a log of ever-new aliases cannot grow the
// memo without bound.
const maxMemoNames = 4096

// nameMemo encrypts identifiers under one DET scheme and remembers
// each identifier's ciphertext, up to maxMemoNames of them.
type nameMemo struct {
	scheme *det.Scheme
	mu     sync.Mutex
	enc    map[string]string
}

func (m *nameMemo) encrypt(name string) string {
	m.mu.Lock()
	enc, ok := m.enc[name]
	m.mu.Unlock()
	if ok {
		return enc
	}
	enc = namePrefix + hex.EncodeToString(m.scheme.EncryptString(name))
	m.mu.Lock()
	if len(m.enc) < maxMemoNames {
		// A parsed name may share the memory of its whole query.
		m.enc[strings.Clone(name)] = enc
	}
	m.mu.Unlock()
	return enc
}

// EncryptRelName implements EncRel: deterministic, invertible encryption
// of a relation name into a valid SQL identifier.
func (d *Deployment) EncryptRelName(name string) string {
	return d.relNames.encrypt(name)
}

// DecryptRelName inverts EncryptRelName.
func (d *Deployment) DecryptRelName(enc string) (string, error) {
	return decryptName(d.relNames.scheme, enc)
}

// EncryptAttrName implements EncAttr for attribute names.
func (d *Deployment) EncryptAttrName(name string) string {
	return d.attrNames.encrypt(name)
}

// DecryptAttrName inverts EncryptAttrName.
func (d *Deployment) DecryptAttrName(enc string) (string, error) {
	return decryptName(d.attrNames.scheme, enc)
}

func decryptName(s *det.Scheme, enc string) (string, error) {
	if !strings.HasPrefix(enc, namePrefix) {
		return "", fmt.Errorf("encdb: %q is not an encrypted name", enc)
	}
	raw, err := hex.DecodeString(enc[len(namePrefix):])
	if err != nil {
		return "", fmt.Errorf("encdb: malformed encrypted name: %w", err)
	}
	pt, err := s.Decrypt(raw)
	if err != nil {
		return "", fmt.Errorf("encdb: name decryption: %w", err)
	}
	return string(pt), nil
}

// --- per-column scheme construction ---

// schemeCache memoizes per-(column, class) scheme instances; mu guards
// the three maps.
type schemeCache struct {
	mu   sync.Mutex
	det  map[string]*det.Scheme
	ope  map[string]*ope.Scheme
	prob map[string]*prob.Scheme
}

func (c *schemeCache) init() {
	c.det = make(map[string]*det.Scheme)
	c.ope = make(map[string]*ope.Scheme)
	c.prob = make(map[string]*prob.Scheme)
}

// cachedScheme returns m[id], building and storing it on a miss. The
// build runs under mu, so each id is built once.
func cachedScheme[S any](mu *sync.Mutex, m map[string]S, id string, build func() (S, error)) (S, error) {
	mu.Lock()
	defer mu.Unlock()
	if s, ok := m[id]; ok {
		return s, nil
	}
	s, err := build()
	if err != nil {
		return s, err
	}
	m[id] = s
	return s, nil
}

// detScheme returns the DET scheme for a column's constants. Columns in
// the same join group share keys (JOIN mode).
func (d *Deployment) detScheme(table, column string) (*det.Scheme, error) {
	id := table + "\x00" + column + "\x00" + string(d.km.JoinGroups().KeyLabel(table, column))
	return cachedScheme(&d.schemes.mu, d.schemes.det, id, func() (*det.Scheme, error) {
		return det.New(d.km.ColumnKey(table, column, keys.ClassDET))
	})
}

// opeScheme returns the OPE scheme for a column (JOIN-OPE key sharing).
func (d *Deployment) opeScheme(table, column string) (*ope.Scheme, error) {
	id := table + "\x00" + column + "\x00" + string(d.km.JoinGroups().KeyLabel(table, column))
	return cachedScheme(&d.schemes.mu, d.schemes.ope, id, func() (*ope.Scheme, error) {
		return ope.New(d.km.ColumnKey(table, column, keys.ClassOPE), d.opeParams)
	})
}

// probScheme returns the PROB scheme for a column.
func (d *Deployment) probScheme(table, column string) (*prob.Scheme, error) {
	id := table + "\x00" + column
	return cachedScheme(&d.schemes.mu, d.schemes.prob, id, func() (*prob.Scheme, error) {
		return prob.New(d.km.ColumnKey(table, column, keys.ClassPROB))
	})
}

// --- value encoding ---

// encodeValue serializes a non-NULL value for DET/PROB encryption with a
// kind tag, so decryption restores the exact value.
func encodeValue(v value.Value) ([]byte, error) {
	switch v.Kind() {
	case value.KindInt:
		out := make([]byte, 9)
		out[0] = 'i'
		binary.BigEndian.PutUint64(out[1:], uint64(v.AsInt()))
		return out, nil
	case value.KindFloat:
		out := make([]byte, 9)
		out[0] = 'f'
		binary.BigEndian.PutUint64(out[1:], math.Float64bits(v.AsFloat()))
		return out, nil
	case value.KindString:
		return append([]byte{'s'}, v.AsString()...), nil
	default:
		return nil, fmt.Errorf("encdb: cannot encode %s value", v.Kind())
	}
}

// decodeValue inverts encodeValue.
func decodeValue(b []byte) (value.Value, error) {
	if len(b) == 0 {
		return value.Value{}, fmt.Errorf("encdb: empty encoded value")
	}
	switch b[0] {
	case 'i':
		if len(b) != 9 {
			return value.Value{}, fmt.Errorf("encdb: bad int encoding")
		}
		return value.Int(int64(binary.BigEndian.Uint64(b[1:]))), nil
	case 'f':
		if len(b) != 9 {
			return value.Value{}, fmt.Errorf("encdb: bad float encoding")
		}
		return value.Float(math.Float64frombits(binary.BigEndian.Uint64(b[1:]))), nil
	case 's':
		return value.Str(string(b[1:])), nil
	default:
		return value.Value{}, fmt.Errorf("encdb: unknown value tag %q", b[0])
	}
}

// encryptDET deterministically encrypts a constant under the column's
// DET key. NULL stays NULL.
func (d *Deployment) encryptDET(table, column string, v value.Value) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	s, err := d.detScheme(table, column)
	if err != nil {
		return value.Value{}, err
	}
	enc, err := encodeValue(v)
	if err != nil {
		return value.Value{}, err
	}
	return value.Bytes(s.Encrypt(enc)), nil
}

// decryptDET inverts encryptDET.
func (d *Deployment) decryptDET(table, column string, v value.Value) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	s, err := d.detScheme(table, column)
	if err != nil {
		return value.Value{}, err
	}
	pt, err := s.Decrypt(v.AsBytes())
	if err != nil {
		return value.Value{}, err
	}
	return decodeValue(pt)
}

// encryptOPE order-preservingly encrypts a numeric constant. The
// column's declared type fixes the order-preserving integer encoding so
// INT literals compared against FLOAT columns order correctly.
func (d *Deployment) encryptOPE(table, column string, colType ColumnKind, v value.Value) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	if !v.IsNumeric() {
		return value.Value{}, fmt.Errorf("encdb: OPE requires numeric values, got %s for %s.%s", v.Kind(), table, column)
	}
	var u uint64
	switch colType {
	case KindInt:
		if v.Kind() == value.KindFloat {
			return value.Value{}, fmt.Errorf("encdb: float constant %v against INT column %s.%s", v, table, column)
		}
		u = ope.EncodeInt64(v.AsInt())
	case KindFloat:
		u = ope.EncodeFloat64(v.AsFloat())
	default:
		return value.Value{}, fmt.Errorf("encdb: OPE unsupported for column kind %v", colType)
	}
	s, err := d.opeScheme(table, column)
	if err != nil {
		return value.Value{}, err
	}
	ct, err := s.Encrypt(u)
	if err != nil {
		return value.Value{}, err
	}
	return value.Bytes(ct), nil
}

// decryptOPE inverts encryptOPE.
func (d *Deployment) decryptOPE(table, column string, colType ColumnKind, v value.Value) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	s, err := d.opeScheme(table, column)
	if err != nil {
		return value.Value{}, err
	}
	u, err := s.Decrypt(v.AsBytes())
	if err != nil {
		return value.Value{}, err
	}
	switch colType {
	case KindInt:
		return value.Int(ope.DecodeInt64(u)), nil
	case KindFloat:
		return value.Float(ope.DecodeFloat64(u)), nil
	default:
		return value.Value{}, fmt.Errorf("encdb: OPE unsupported for column kind %v", colType)
	}
}

// encryptPROB probabilistically encrypts a constant.
func (d *Deployment) encryptPROB(table, column string, v value.Value) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	s, err := d.probScheme(table, column)
	if err != nil {
		return value.Value{}, err
	}
	enc, err := encodeValue(v)
	if err != nil {
		return value.Value{}, err
	}
	ct, err := s.Encrypt(enc)
	if err != nil {
		return value.Value{}, err
	}
	return value.Bytes(ct), nil
}

// encryptHOM Paillier-encrypts a numeric value. Floats are rejected:
// HOM columns must be integers (CryptDB shares this restriction).
func (d *Deployment) encryptHOM(v value.Value) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	if v.Kind() != value.KindInt {
		return value.Value{}, fmt.Errorf("encdb: HOM requires integer values, got %s", v.Kind())
	}
	_, enc := d.hom()
	c, err := enc.EncryptInt64(nil, v.AsInt())
	if err != nil {
		return value.Value{}, err
	}
	return value.BigInt(c), nil
}
