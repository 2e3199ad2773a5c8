package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"testing"
)

// FuzzJSONWritersMatchStdlib: writeJSONString renders every string, and
// writeJSONFloat every finite float64, exactly as json.Marshal does —
// the property every hand-encoded ranking, plan and bulk line rests on.
// Run briefly by `make fuzz-smoke`.
func FuzzJSONWritersMatchStdlib(f *testing.F) {
	for _, s := range []string{"", "A-000001", "P\u2028X", "P\u2029X", "bad\xffid", "\xed\xa0\x80",
		`<&>"\`, "\b\f\n\r\t\x00\x1f\x7f", "é漢字\U0001F600"} {
		f.Add(s, uint64(0))
	}
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 123.456, -1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(-1)} {
		f.Add("", math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := writeJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("writeJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		v := math.Float64frombits(bits)
		if want, err = json.Marshal(v); err != nil {
			if finite(v) {
				t.Fatalf("json.Marshal(%v): %v", v, err)
			}
			return // JSON has no NaN or infinity; callers check finite first
		}
		if got := writeJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("writeJSONFloat(%v) = %s, json.Marshal = %s", v, got, want)
		}
	})
}

// encodeBody is the encoding/json oracle for a response body: the value
// and the newline json.Encoder ends it with.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func TestBodyETagDeterministic(t *testing.T) {
	a := bodyETag([]byte("hello"))
	if b := bodyETag([]byte("hel"), []byte("lo")); a != b {
		t.Fatalf("%q != %q", a, b)
	}
	if a == bodyETag([]byte("world")) {
		t.Fatal("different bodies share an ETag")
	}
	if a != fnvETag([]byte("hello")) {
		t.Fatalf("ETag %q, want the hash/fnv tag %q", a, fnvETag([]byte("hello")))
	}
}

// TestRankingEncodedOnDemand: a snapshot encodes its ranking only as far
// as reads ask for, in any order and from concurrent readers. Every
// prefix matches encoding/json with its Content-Length, bytes already
// served are never rewritten, encoding stops at an entry JSON cannot
// encode, and a rebuild with the same ETag inherits the encoding.
func TestRankingEncodedOnDemand(t *testing.T) {
	s, _ := newTestServer(t)
	ctx := context.Background()
	trained, err := s.get(ctx, "Logistic")
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *modelSnapshot {
		return newModelSnapshot("Logistic", trained.ranking, s.def.data.NumPipes(), trained.calibrator, 0)
	}
	n := len(trained.entries)
	want := func(tm *modelSnapshot, top int) []byte {
		body, err := encodeBody(tm.entries[:min(top, n)])
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	check := func(tm *modelSnapshot, top int) *rankBody {
		t.Helper()
		body, length, err := tm.rankPrefix(top)
		if err != nil {
			t.Fatalf("top=%d: %v", top, err)
		}
		got := append(bytes.Clone(body), listClose...)
		if w := want(tm, top); !bytes.Equal(got, w) || length[0] != strconv.Itoa(len(w)) {
			t.Fatalf("top=%d: body %.80s with Content-Length %s, want %.80s (%d bytes)", top, got, length[0], w, len(w))
		}
		return tm.rank.Load()
	}

	tm := fresh()
	first := check(tm, 3)
	if len(first.end)-1 >= n {
		t.Fatalf("top=3 encoded %d of %d entries", len(first.end)-1, n)
	}
	served := bytes.Clone(first.body)
	for _, top := range []int{1, 10, 9, 40, n / 2, 2, n, n + 5, 7} {
		check(tm, top)
	}
	if !bytes.Equal(first.body, served) {
		t.Fatal("extending the ranking rewrote bytes already served")
	}
	if rb := tm.rank.Load(); !rb.done || len(rb.end) != n+1 {
		t.Fatalf("after top=%d: %d entries encoded, done %v", n, len(rb.end)-1, rb.done)
	}

	tm = fresh()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for top := 1 + g; top <= n; top += 1 + top/3 {
				body, _, err := tm.rankPrefix(top)
				if err != nil {
					t.Errorf("top=%d: %v", top, err)
					return
				}
				if w := want(tm, top); !bytes.Equal(body, w[:len(w)-len(listClose)]) {
					t.Errorf("concurrent top=%d: body diverges", top)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	tm = fresh()
	tm.entries[5].Score = math.NaN()
	check(tm, 5)
	for _, top := range []int{6, n} {
		if _, _, err := tm.rankPrefix(top); err == nil {
			t.Fatalf("top=%d reached a NaN score without an error", top)
		}
	}
	check(tm, 4)

	a, b, other := fresh(), fresh(), fresh()
	check(a, 20)
	b.inherit(a)
	if b.rank.Load() != a.rank.Load() {
		t.Fatal("a snapshot with an equal ETag did not inherit the encoded ranking")
	}
	// The two extend the shared encoding at once; neither may write
	// into arrays the other reads (a data race under -race).
	for _, tm := range []*modelSnapshot{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm.rankPrefix(n)
		}()
	}
	wg.Wait()
	check(a, n)
	check(b, n)
	other.etag = `"r-other"`
	if other.inherit(a); other.rank.Load() != nil {
		t.Fatal("a snapshot with a different ETag inherited the encoded ranking")
	}

	// A rebuild that reproduces the snapshot keeps its encoding.
	check(trained, 20)
	s.rebuildSlots = newRebuildSlots(1)
	_, wait := s.dispatch([]rebuildTarget{{sh: s.def, name: "Logistic"}})
	wait()
	rebuilt := s.def.slot("Logistic").snap.Load()
	if rebuilt == trained || rebuilt.etag != trained.etag {
		t.Fatalf("rebuild published %p with ETag %s, want a new snapshot with ETag %s", rebuilt, rebuilt.etag, trained.etag)
	}
	if rebuilt.rank.Load() != trained.rank.Load() {
		t.Fatal("a bit-identical rebuild encoded its ranking again")
	}
}
