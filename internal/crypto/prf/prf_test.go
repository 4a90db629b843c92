package prf

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

func TestPRFDeterministic(t *testing.T) {
	p1 := New([]byte("key-a"))
	p2 := New([]byte("key-a"))
	in := []byte("hello world")
	if !bytes.Equal(p1.Eval(in), p2.Eval(in)) {
		t.Fatal("same key, same input must give same output")
	}
}

func TestPRFKeySeparation(t *testing.T) {
	p1 := New([]byte("key-a"))
	p2 := New([]byte("key-b"))
	in := []byte("hello world")
	if bytes.Equal(p1.Eval(in), p2.Eval(in)) {
		t.Fatal("different keys must give different outputs")
	}
}

func TestPRFOutputSize(t *testing.T) {
	p := New([]byte("k"))
	if got := len(p.Eval([]byte("x"))); got != Size {
		t.Fatalf("output size = %d, want %d", got, Size)
	}
}

func TestPRFKeyCopied(t *testing.T) {
	key := []byte("mutable-key")
	p := New(key)
	before := p.Eval([]byte("in"))
	key[0] = 'X'
	after := p.Eval([]byte("in"))
	if !bytes.Equal(before, after) {
		t.Fatal("PRF must copy its key; caller mutation changed output")
	}
}

func TestEvalPartsBoundaries(t *testing.T) {
	p := New([]byte("k"))
	a := p.EvalParts([]byte("ab"), []byte("c"))
	b := p.EvalParts([]byte("a"), []byte("bc"))
	if bytes.Equal(a, b) {
		t.Fatal(`EvalParts("ab","c") must differ from EvalParts("a","bc")`)
	}
	c := p.EvalParts([]byte("abc"))
	if bytes.Equal(a, c) || bytes.Equal(b, c) {
		t.Fatal("part count must be bound into the PRF input")
	}
}

func TestDeriveIndependence(t *testing.T) {
	p := New([]byte("master"))
	d1 := p.Derive("col1")
	d2 := p.Derive("col2")
	in := []byte("v")
	if bytes.Equal(d1.Eval(in), d2.Eval(in)) {
		t.Fatal("derived keys for distinct labels must differ")
	}
	d1b := p.Derive("col1")
	if !bytes.Equal(d1.Eval(in), d1b.Eval(in)) {
		t.Fatal("derivation must be deterministic")
	}
}

func TestDRBGDeterministicStream(t *testing.T) {
	a := NewDRBG([]byte("seed"), []byte("label"))
	b := NewDRBG([]byte("seed"), []byte("label"))
	ba := make([]byte, 1000)
	bb := make([]byte, 1000)
	a.Read(ba)
	b.Read(bb)
	if !bytes.Equal(ba, bb) {
		t.Fatal("two DRBGs with same seed/label must emit identical streams")
	}
}

func TestDRBGLabelSeparation(t *testing.T) {
	a := NewDRBG([]byte("seed"), []byte("l1"))
	b := NewDRBG([]byte("seed"), []byte("l2"))
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different labels should give different streams")
	}
}

func TestDRBGReadChunking(t *testing.T) {
	// Reading 100 bytes at once equals reading 100 bytes in odd chunks.
	a := NewDRBG([]byte("s"), []byte("l"))
	b := NewDRBG([]byte("s"), []byte("l"))
	whole := make([]byte, 100)
	a.Read(whole)
	var pieces []byte
	for _, n := range []int{1, 7, 13, 31, 48} {
		chunk := make([]byte, n)
		b.Read(chunk)
		pieces = append(pieces, chunk...)
	}
	if !bytes.Equal(whole, pieces) {
		t.Fatal("stream must be independent of read chunking")
	}
}

func TestUint64nBounds(t *testing.T) {
	d := NewDRBG([]byte("s"), []byte("bounds"))
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := d.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) must panic")
		}
	}()
	NewDRBG([]byte("s"), []byte("l")).Uint64n(0)
}

func TestUint64nCoversRange(t *testing.T) {
	d := NewDRBG([]byte("s"), []byte("cover"))
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[d.Uint64n(5)] = true
	}
	for v := uint64(0); v < 5; v++ {
		if !seen[v] {
			t.Fatalf("value %d never sampled in 1000 draws from [0,5)", v)
		}
	}
}

func TestInt64Range(t *testing.T) {
	d := NewDRBG([]byte("s"), []byte("range"))
	for i := 0; i < 500; i++ {
		v := d.Int64Range(-10, 10)
		if v < -10 || v > 10 {
			t.Fatalf("Int64Range(-10,10) = %d out of range", v)
		}
	}
	// Degenerate single-point range.
	if v := d.Int64Range(42, 42); v != 42 {
		t.Fatalf("Int64Range(42,42) = %d, want 42", v)
	}
}

func TestBigIntnBounds(t *testing.T) {
	d := NewDRBG([]byte("s"), []byte("big"))
	n := new(big.Int).Lsh(big.NewInt(1), 130) // 2^130
	for i := 0; i < 100; i++ {
		v := d.BigIntn(n)
		if v.Sign() < 0 || v.Cmp(n) >= 0 {
			t.Fatalf("BigIntn out of range: %v", v)
		}
	}
}

func TestBigIntnSmall(t *testing.T) {
	d := NewDRBG([]byte("s"), []byte("small"))
	one := big.NewInt(1)
	for i := 0; i < 20; i++ {
		if v := d.BigIntn(one); v.Sign() != 0 {
			t.Fatalf("BigIntn(1) = %v, want 0", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	d := NewDRBG([]byte("s"), []byte("f"))
	for i := 0; i < 1000; i++ {
		f := d.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	d := NewDRBG([]byte("s"), []byte("perm"))
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := d.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestQuickPRFDeterminism(t *testing.T) {
	p := New([]byte("quick-key"))
	f := func(in []byte) bool {
		return bytes.Equal(p.Eval(in), p.Eval(in))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	d := NewDRBG([]byte("quick"), []byte("u64n"))
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return d.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (d *DRBG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(d.Uint64n(uint64(i + 1)))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
