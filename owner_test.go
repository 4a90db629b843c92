package dpe

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"testing"
)

// ownerKATLog is the known-answer workload: generated queries with
// joins and aggregates, so every measure's rewriter meets JOIN-shared
// keys, OPE ranges and aggregate arguments.
func ownerKATLog(t *testing.T) *Workload {
	t.Helper()
	w, err := GenerateWorkload(WorkloadConfig{Seed: "owner-kat", Queries: 48, Rows: 40, IncludeAggregates: true, IncludeJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// ownerKAT returns an owner over w under the fixed known-answer secret,
// with w's joins declared.
func ownerKAT(t *testing.T, w *Workload, bits int) *Owner {
	t.Helper()
	owner, err := NewOwner([]byte("owner-kat-master"), w.Schema, Config{PaillierBits: bits})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.DeclareJoins(w.Queries); err != nil {
		t.Fatal(err)
	}
	return owner
}

// logDigest is the hex SHA-256 over a log's queries, each ended by a
// newline.
func logDigest(log []string) string {
	h := sha256.New()
	for _, q := range log {
		h.Write([]byte(q))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOwnerKnownAnswers pins every deterministic byte the owner emits.
// A log id is the hash of its ciphertexts (service.LogID) and servers
// journal them, so a changed byte would orphan every stored log: the
// digests below must never change. Structure mode is left out on
// purpose: its constants are PROB-encrypted, so two runs differ.
func TestOwnerKnownAnswers(t *testing.T) {
	w := ownerKATLog(t)
	wantLogs := map[Measure]string{
		MeasureToken:      "6432db3968d6023d0bcd973cea99c750889318ee3a2cdaf7ddacc3a9c9b5decb",
		MeasureResult:     "1d9b471579ea05504e2293870ad5aa82f6758fceab07af0da42e36110d9b6748",
		MeasureAccessArea: "cb5f6d3bedbdb0716b3ce65e44939fec23721d774e7610c0ff5b3475bbafa8d3",
	}
	wantKeys := map[int]string{
		512: "50fa33cea42732da5e8fd2f10743563c6207ba9af81b0f38278333d003cfb27e",
		0:   "4dd6a1b76feb9441d33d69671ba41ab2dcfcdffad3585e5e6a464ecd39f9f641",
	}
	for _, bits := range []int{512, 0} {
		owner := ownerKAT(t, w, bits)
		for m, want := range wantLogs {
			enc, err := owner.EncryptLog(w.Queries, m)
			if err != nil {
				t.Fatalf("bits %d, %s: %v", bits, m, err)
			}
			if got := logDigest(enc); got != want {
				t.Errorf("bits %d, %s: log digest %s, want %s", bits, m, got, want)
			}
		}
		n := owner.ResultAggregatorKey().N
		wantBits := bits
		if wantBits == 0 {
			wantBits = 1024
		}
		if n.BitLen() != wantBits {
			t.Errorf("bits %d: modulus has %d bits, want %d", bits, n.BitLen(), wantBits)
		}
		sum := sha256.Sum256(n.Bytes())
		if got := hex.EncodeToString(sum[:]); got != wantKeys[bits] {
			t.Errorf("bits %d: modulus digest %s, want %s", bits, got, wantKeys[bits])
		}
	}
}

// TestOwnerConcurrentEncrypt runs every owner entry point that fills a
// key cache at once on one Owner: the four measures' EncryptLog,
// EncryptCatalog and two ResultAggregatorKey calls. The deterministic
// logs must equal a sequential owner's byte for byte, and both keys
// must be one key. Under -race it also checks the caches' locking.
func TestOwnerConcurrentEncrypt(t *testing.T) {
	w := ownerKATLog(t)
	measures := []Measure{MeasureToken, MeasureStructure, MeasureResult, MeasureAccessArea}

	seq := ownerKAT(t, w, 512)
	want := make(map[Measure][]string)
	for _, m := range measures {
		enc, err := seq.EncryptLog(w.Queries, m)
		if err != nil {
			t.Fatalf("sequential %s: %v", m, err)
		}
		want[m] = enc
	}
	wantN := seq.ResultAggregatorKey().N

	owner := ownerKAT(t, w, 512)
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   = make([][]string, len(measures))
		errs  = make([]error, len(measures)+1)
		keys  = make([]*AggregatorKey, 2)
	)
	for i, m := range measures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = owner.EncryptLog(w.Queries, m)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		_, errs[len(measures)] = owner.EncryptCatalog(w.Catalog)
	}()
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			keys[i] = owner.ResultAggregatorKey()
		}()
	}
	close(start)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range measures {
		if m == MeasureStructure {
			continue // PROB constants differ run to run
		}
		if !slices.Equal(got[i], want[m]) {
			t.Errorf("%s: concurrent log differs from the sequential one", m)
		}
	}
	if keys[0].N.Cmp(keys[1].N) != 0 || keys[0].N.Cmp(wantN) != 0 {
		t.Error("concurrent ResultAggregatorKey calls returned different keys")
	}
}

// TestNewOwnerAllocs gates owner construction: it derives the name keys
// only, so it must stay far below the tens of thousands of allocations
// a Paillier key generation makes.
func TestNewOwnerAllocs(t *testing.T) {
	schema := ownerKATLog(t).Schema
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewOwner([]byte("alloc-master"), schema, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("NewOwner made %v allocations, want at most 200", allocs)
	}
}

// TestNewOwnerRejectsBadPaillierBits checks that a modulus size the key
// generator would reject fails construction, not the first use.
func TestNewOwnerRejectsBadPaillierBits(t *testing.T) {
	schema := NewSchema()
	for _, bits := range []int{1, 8, 63, -1, -1024} {
		_, err := NewOwner([]byte("m"), schema, Config{PaillierBits: bits})
		if err == nil || !strings.Contains(err.Error(), "too small") {
			t.Errorf("PaillierBits %d: err = %v, want a too-small modulus error", bits, err)
		}
	}
	for _, bits := range []int{0, 64, 512} {
		if _, err := NewOwner([]byte("m"), schema, Config{PaillierBits: bits}); err != nil {
			t.Errorf("PaillierBits %d: %v", bits, err)
		}
	}
}
