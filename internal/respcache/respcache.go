// Package respcache is a size-bounded LRU cache of fully encoded HTTP
// response bodies, built for the serve read path: rankings, cohort
// tables, hotspot lists and inspection plans are immutable once
// computed, so the JSON bytes can be encoded once and replayed for
// every later request. GET responses key on canonicalized query
// parameters; POST plan responses key on the decoded request fields
// (model, budget dimensions, cost parameters) rendered canonically via
// AppendKeyFloat, so textual aliases of one request share an entry.
//
// Callers pair Get with Add: look the key up, and on a miss build the
// body and Add it only if building succeeded, so a failed fill (an
// invalid plan, an encode error) is never cached. Three properties drive
// the design:
//
//   - Zero-allocation hits. Get takes the key as a []byte so callers can
//     assemble it in pooled scratch; the lookup uses Go's
//     map[string(bytes)] optimization and never retains the key on a
//     hit. Entries carry their ETag and Content-Length header values as
//     prebuilt []string slices, so serving a hit assigns three
//     preexisting slices into the header map and writes one body —
//     nothing escapes to the heap.
//   - No fill coordination. Cached bodies encode immutable snapshots, so
//     two callers that miss on one key at once build identical bytes;
//     each builds its own copy and Add keeps whichever landed first.
//   - Bounded memory. Total body bytes are capped; inserting past the
//     cap evicts from the LRU tail. A body larger than the whole cap is
//     never inserted.
//
// Hit/miss/eviction counters and byte/entry gauges register in an obs
// registry under respcache.<name>.* (see DESIGN.md, Observability).
package respcache

import (
	"container/list"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Entry is one cached response: the encoded body plus the header values
// a handler needs to serve it. Body is shared between the cache and
// every reader and must be treated as immutable.
type Entry struct {
	// Body is the complete encoded response body.
	Body []byte
	// ETag is the strong validator sent in the ETag header and compared
	// against If-None-Match; empty disables conditional handling.
	ETag string

	// etagHdr and lenHdr are the header-map values, prepared once at
	// insert time so cache hits set headers with zero allocations.
	etagHdr []string
	lenHdr  []string
}

// SetHeaders installs the entry's ETag and Content-Length into h. On a
// cache hit the slices were prepared at insert time, so this performs
// no allocations; on a freshly built entry (Add prepares only its own
// copy) it falls back to building them.
func (e *Entry) SetHeaders(h http.Header) {
	if e.etagHdr == nil && e.lenHdr == nil {
		e.prepare()
	}
	if e.etagHdr != nil {
		h["Etag"] = e.etagHdr
	}
	h["Content-Length"] = e.lenHdr
}

// prepare builds the prebuilt header slices.
func (e *Entry) prepare() {
	if e.ETag != "" {
		e.etagHdr = []string{e.ETag}
	}
	e.lenHdr = []string{strconv.Itoa(len(e.Body))}
}

// BodyETag derives a strong ETag from the body bytes (FNV-1a), for
// responses with no natural content version. Deterministic: the same
// bytes always produce the same tag.
func BodyETag(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return `"b-` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// AppendKeyFloat appends the canonical shortest decimal rendering of f
// to a cache key, folding negative zero into zero — the keying helper
// for POST-body parameters, where `5`, `5.0` and `5e0` in a request
// body all decode to the same float64 and must share one cache entry.
func AppendKeyFloat(key []byte, f float64) []byte {
	if f == 0 {
		f = 0 // -0 and +0 compare equal; render both as "0"
	}
	return strconv.AppendFloat(key, f, 'g', -1, 64)
}

// entry is the LRU node payload.
type entry struct {
	key string
	e   Entry
}

// Cache is a size-bounded LRU of encoded responses. All methods are
// safe for concurrent use.
type Cache struct {
	maxBytes int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	size  int64

	hits, misses, evictions *obs.Counter
	bytes, entries          *obs.Gauge
}

// New builds a cache capped at maxBytes of body data, registering its
// metrics as respcache.<name>.{hits,misses,evictions,bytes,entries} in
// reg (nil selects the default registry). maxBytes <= 0 panics: a cache
// that can hold nothing is a configuration bug, not a runtime state.
func New(name string, maxBytes int64, reg *obs.Registry) *Cache {
	if maxBytes <= 0 {
		panic("respcache: non-positive maxBytes")
	}
	if reg == nil {
		reg = obs.Default()
	}
	prefix := "respcache." + name + "."
	return &Cache{
		maxBytes:  maxBytes,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      reg.Counter(prefix + "hits"),
		misses:    reg.Counter(prefix + "misses"),
		evictions: reg.Counter(prefix + "evictions"),
		bytes:     reg.Gauge(prefix + "bytes"),
		entries:   reg.Gauge(prefix + "entries"),
	}
}

// Add inserts an entry under key, preparing its header slices and
// evicting from the LRU tail as needed. It is the insertion half of the
// Get/Add pair: callers Add only a successfully built body. An existing
// entry for the key is kept (both encode the same immutable content).
// Safe for concurrent use.
func (c *Cache) Add(key []byte, e Entry) {
	e.prepare()
	c.mu.Lock()
	c.insertLocked(string(key), e)
	c.mu.Unlock()
}

// Get returns the cached entry for key, counting a hit or a miss. The
// key may point into caller-owned scratch; the hit path performs zero
// allocations.
func (c *Cache) Get(key []byte) (Entry, bool) {
	c.mu.Lock()
	el, ok := c.items[string(key)]
	if !ok {
		c.mu.Unlock()
		c.misses.Inc()
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry).e
	c.mu.Unlock()
	c.hits.Inc()
	return e, true
}

// insertLocked adds the entry and evicts from the LRU tail until the
// byte budget holds. Bodies larger than the whole budget are not
// inserted at all — caching them would just flush everything else.
func (c *Cache) insertLocked(key string, e Entry) {
	n := int64(len(e.Body))
	if n > c.maxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		// A racing miss for the same key already inserted; keep the
		// existing entry (they encode the same immutable content).
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, e: e})
	c.size += n
	for c.size > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, victim.key)
		c.size -= int64(len(victim.e.Body))
		c.evictions.Inc()
	}
	c.bytes.Set(float64(c.size))
	c.entries.Set(float64(c.ll.Len()))
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// SizeBytes returns the summed body bytes currently held.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Keys returns every cached key, most recently used first — a test and
// debugging helper, not a hot-path API.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// PartitionBudget splits a global byte budget into n per-cache shares:
// equal division with the remainder going to the first share, and every
// share at least 1 byte so a partitioned New never hits the
// non-positive-budget panic even when a tiny budget meets many shards
// (a 1-byte cache holds nothing but stays well-formed).
func PartitionBudget(total int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	shares := make([]int64, n)
	each := total / int64(n)
	if each < 1 {
		each = 1
	}
	for i := range shares {
		shares[i] = each
	}
	if rem := total - each*int64(n); rem > 0 {
		shares[0] += rem
	}
	return shares
}
