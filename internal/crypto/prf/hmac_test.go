package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"
)

// raceEnabled is set under -race (race_test.go). The race detector
// makes sync.Pool drop a random share of its items, so allocation
// counts there are not the program's.
var raceEnabled bool

// refHMAC is HMAC-SHA256(key, msg) computed by crypto/hmac directly.
func refHMAC(key, msg []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return mac.Sum(nil)
}

// lengthPrefixed is EvalParts' input encoding: each part preceded by
// its length as a big-endian uint64.
func lengthPrefixed(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = binary.BigEndian.AppendUint64(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

// refStream is the first n bytes of the DRBG stream under (key, label):
// block i is HMAC(key, lengthPrefixed("drbg", label, i)).
func refStream(key, label []byte, n int) []byte {
	var out []byte
	for ctr := uint64(0); len(out) < n; ctr++ {
		out = append(out, refHMAC(key, lengthPrefixed([]byte("drbg"), label, binary.BigEndian.AppendUint64(nil, ctr)))...)
	}
	return out[:n]
}

var (
	vectorKeys = [][]byte{
		nil,
		[]byte("k"),
		bytes.Repeat([]byte{0xA5}, sha256.BlockSize),
		bytes.Repeat([]byte{0x5A}, 2*sha256.BlockSize+3), // longer than a block: hashed first
	}
	vectorInputs = [][]byte{nil, []byte("x"), bytes.Repeat([]byte("abc"), 50)}
)

// checkVectors compares Eval, EvalParts and a DRBG stream drawn from ps
// against crypto/hmac; ps[i] is keyed with vectorKeys[i].
func checkVectors(t *testing.T, ps []*PRF) {
	t.Helper()
	for i, p := range ps {
		key := vectorKeys[i]
		for _, in := range vectorInputs {
			if got, want := p.Eval(in), refHMAC(key, in); !bytes.Equal(got, want) {
				t.Errorf("key %d: Eval(%q) = %x, want %x", i, in, got, want)
			}
			parts := [][]byte{[]byte("colkey"), in, nil}
			if got, want := p.EvalParts(parts...), refHMAC(key, lengthPrefixed(parts...)); !bytes.Equal(got, want) {
				t.Errorf("key %d: EvalParts(%q) = %x, want %x", i, parts, got, want)
			}
		}
		label := []byte("paillier")
		got := make([]byte, 3*Size+5)
		NewDRBGFromPRF(p, label).Read(got)
		if want := refStream(key, label, len(got)); !bytes.Equal(got, want) {
			t.Errorf("key %d: DRBG stream = %x, want %x", i, got, want)
		}
	}
}

// TestPRFMatchesHMAC checks every PRF output against crypto/hmac, on
// fresh PRFs, on PRFs whose keyed states are reused, and from
// concurrent goroutines sharing them.
func TestPRFMatchesHMAC(t *testing.T) {
	ps := make([]*PRF, len(vectorKeys))
	for i, k := range vectorKeys {
		ps[i] = New(k)
	}
	for round := 0; round < 3; round++ {
		checkVectors(t, ps)
	}
	for i, k := range vectorKeys {
		got := make([]byte, 2*Size+1)
		NewDRBG(k, []byte("label")).Read(got)
		if want := refStream(k, []byte("label"), len(got)); !bytes.Equal(got, want) {
			t.Errorf("key %d: NewDRBG stream = %x, want %x", i, got, want)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				checkVectors(t, ps)
			}
		}()
	}
	wg.Wait()
}

// TestEvalAllocs gates the keyed-state reuse: a warm Eval allocates
// only its result, and a warm DRBG refills into its own buffer.
func TestEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	p := New([]byte("alloc-key"))
	in := []byte("SELECT-constant-0123456789")
	if allocs := testing.AllocsPerRun(100, func() { p.Eval(in) }); allocs != 1 {
		t.Errorf("Eval: %v allocations, want 1 (the result)", allocs)
	}
	d := NewDRBGFromPRF(p, []byte("label"))
	buf := make([]byte, 4*Size)
	if allocs := testing.AllocsPerRun(100, func() { d.Read(buf) }); allocs != 0 {
		t.Errorf("DRBG.Read: %v allocations, want 0", allocs)
	}
}
