package respcache

import (
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/obs"
)

func newTestCache(t *testing.T, maxBytes int64) (*Cache, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry("test")
	return New(t.Name(), maxBytes, reg), reg
}

func counters(reg *obs.Registry, name string) (hits, misses, evictions int64) {
	prefix := "respcache." + name + "."
	return reg.Counter(prefix + "hits").Value(),
		reg.Counter(prefix + "misses").Value(),
		reg.Counter(prefix + "evictions").Value()
}

// TestGetAddCachesAndCounts pins the Get/Add pair: a miss is counted
// and returns nothing, Add inserts, and later Gets hit the same entry.
func TestGetAddCachesAndCounts(t *testing.T) {
	c, reg := newTestCache(t, 1<<20)
	if _, ok := c.Get([]byte("k1")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add([]byte("k1"), Entry{Body: []byte(`{"x":1}`), ETag: `"v1"`})
	for i := 0; i < 2; i++ {
		e, ok := c.Get([]byte("k1"))
		if !ok {
			t.Fatal("miss after Add")
		}
		if string(e.Body) != `{"x":1}` || e.ETag != `"v1"` {
			t.Fatalf("entry %+v", e)
		}
	}
	hits, misses, _ := counters(reg, t.Name())
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	if c.Len() != 1 || c.SizeBytes() != int64(len(`{"x":1}`)) {
		t.Fatalf("len=%d size=%d", c.Len(), c.SizeBytes())
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget for exactly two 10-byte bodies.
	c, reg := newTestCache(t, 20)
	body := func(i int) []byte { return []byte(fmt.Sprintf("0123456%03d", i)) }
	for i := 0; i < 2; i++ {
		c.Add([]byte("k"+strconv.Itoa(i)), Entry{Body: body(i)})
	}
	// Touch k0 so k1 is the LRU tail, then insert k2.
	if _, ok := c.Get([]byte("k0")); !ok {
		t.Fatal("k0 missing")
	}
	c.Add([]byte("k2"), Entry{Body: body(2)})
	if _, ok := c.Get([]byte("k1")); ok {
		t.Fatal("k1 should have been evicted")
	}
	if _, ok := c.Get([]byte("k0")); !ok {
		t.Fatal("recently used k0 evicted")
	}
	if _, _, ev := counters(reg, t.Name()); ev != 1 {
		t.Fatalf("evictions=%d, want 1", ev)
	}
	if c.SizeBytes() != 20 {
		t.Fatalf("size=%d", c.SizeBytes())
	}
}

func TestOversizedBodyNotInserted(t *testing.T) {
	c, _ := newTestCache(t, 8)
	c.Add([]byte("big"), Entry{Body: make([]byte, 64)})
	if _, ok := c.Get([]byte("big")); ok || c.Len() != 0 || c.SizeBytes() != 0 {
		t.Fatal("oversized body inserted")
	}
}

func TestSetHeadersZeroAllocOnHit(t *testing.T) {
	c, _ := newTestCache(t, 1<<20)
	c.Add([]byte("k"), Entry{Body: []byte("xyz"), ETag: `"v9"`})
	h := make(http.Header)
	key := []byte("k")
	allocs := testing.AllocsPerRun(200, func() {
		e, ok := c.Get(key)
		if !ok {
			t.Fatal("miss")
		}
		e.SetHeaders(h)
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocated %.1f times per op, want 0", allocs)
	}
	if h.Get("Etag") != `"v9"` || h.Get("Content-Length") != "3" {
		t.Fatalf("headers %v", h)
	}
}

func TestBodyETagDeterministic(t *testing.T) {
	a := BodyETag([]byte("hello"))
	b := BodyETag([]byte("hello"))
	if a != b {
		t.Fatalf("%q != %q", a, b)
	}
	if a == BodyETag([]byte("world")) {
		t.Fatal("different bodies share an ETag")
	}
	if a[0] != '"' || a[len(a)-1] != '"' {
		t.Fatalf("ETag %q not quoted", a)
	}
}

// TestAddInsertsPreparedEntry pins Add's contract: it prepares headers,
// inserts under the byte budget, and keeps an existing entry on a
// racing double-insert.
func TestAddInsertsPreparedEntry(t *testing.T) {
	c, reg := newTestCache(t, 1<<20)
	if _, ok := c.Get([]byte("p1")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add([]byte("p1"), Entry{Body: []byte(`{"plan":1}`), ETag: `"e1"`})
	e, ok := c.Get([]byte("p1"))
	if !ok || string(e.Body) != `{"plan":1}` {
		t.Fatalf("entry %+v ok=%v", e, ok)
	}
	h := make(http.Header)
	e.SetHeaders(h)
	if h.Get("Etag") != `"e1"` || h.Get("Content-Length") != strconv.Itoa(len(e.Body)) {
		t.Fatalf("prepared headers %v", h)
	}
	// Double-insert keeps the first entry.
	c.Add([]byte("p1"), Entry{Body: []byte(`{"plan":2}`), ETag: `"e2"`})
	if e, _ := c.Get([]byte("p1")); string(e.Body) != `{"plan":1}` {
		t.Fatalf("double Add replaced entry: %s", e.Body)
	}
	if c.Len() != 1 {
		t.Fatalf("len=%d", c.Len())
	}
	// Oversized bodies are refused.
	tiny, _ := newTestCache(t, 4)
	tiny.Add([]byte("big"), Entry{Body: []byte("too large to hold")})
	if tiny.Len() != 0 {
		t.Fatal("oversized Add inserted")
	}
	_, _, evictions := counters(reg, t.Name())
	if evictions != 0 {
		t.Fatalf("unexpected evictions %d", evictions)
	}
}

func TestAppendKeyFloatCanonical(t *testing.T) {
	render := func(f float64) string { return string(AppendKeyFloat(nil, f)) }
	if render(5) != render(5.0) {
		t.Fatal("5 and 5.0 render differently")
	}
	if got := render(math.Copysign(0, -1)); got != "0" {
		t.Fatalf("-0 rendered %q, want \"0\"", got)
	}
	// Distinct values must render distinctly (shortest repr is injective).
	if render(0.1) == render(0.1+math.Nextafter(0, 1)*1e300) && 0.1 != 0.1+math.Nextafter(0, 1)*1e300 {
		t.Fatal("distinct floats share a rendering")
	}
	if got := render(12.5); got != "12.5" {
		t.Fatalf("12.5 rendered %q", got)
	}
	// Appends in place.
	key := AppendKeyFloat([]byte("k\x00"), 3)
	if string(key) != "k\x003" {
		t.Fatalf("append result %q", key)
	}
}

func TestPartitionBudget(t *testing.T) {
	if got := PartitionBudget(100, 0); got != nil {
		t.Errorf("n=0: got %v, want nil", got)
	}
	if got := PartitionBudget(100, -1); got != nil {
		t.Errorf("n<0: got %v, want nil", got)
	}
	if got := PartitionBudget(90, 3); !reflect.DeepEqual(got, []int64{30, 30, 30}) {
		t.Errorf("even split: %v", got)
	}
	if got := PartitionBudget(100, 3); !reflect.DeepEqual(got, []int64{34, 33, 33}) {
		t.Errorf("remainder to the first shard: %v", got)
	}
	// Sub-shard budgets still give every shard a constructible cache
	// (respcache.New panics on a zero budget).
	if got := PartitionBudget(2, 4); !reflect.DeepEqual(got, []int64{1, 1, 1, 1}) {
		t.Errorf("minimum one byte each: %v", got)
	}
	var sum int64
	for _, s := range PartitionBudget(101, 4) {
		sum += s
	}
	if sum != 101 {
		t.Errorf("budget not conserved: %d", sum)
	}
}
