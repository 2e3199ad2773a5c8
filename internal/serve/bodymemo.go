package serve

// Raw-body memo for the POST /api/plan and /api/bulk/* request bodies.
// Decoding is a pure function of the body bytes, so the decoded request
// can be memoized by those bytes with no invalidation: a repeated body
// is one map lookup under a read lock and allocates nothing, which keeps
// the repeat plan and bulk paths allocation-free. A miss decodes with
// decodeOne (one value and only whitespace after it, last duplicate key
// wins, stdlib error text) and stores the result under a copied key.
// Rejected bodies are never stored, and the memo is cleared whenever an
// insert would push it past memoMaxBytes.

import (
	"bytes"
	"encoding/json"
	"sync"
)

// memoMaxBytes bounds each memo's accounted size: every entry charges
// its raw body, the strings its decoded value holds and memoEntryBytes.
// readBody caps bodies at bufPoolMax, so any accepted body fits.
const memoMaxBytes = 4 * bufPoolMax

// memoEntryBytes is the flat per-entry charge for the map slot, the key
// and value headers, the decoded struct and its boxed numbers (about
// 170 bytes for a bulkRequest), rounded up.
const memoEntryBytes = 256

// bodyMemo maps raw request bodies to immutable decoded values of type
// T. The zero value is ready to use.
type bodyMemo[T any, P interface {
	*T
	// memoBytes reports the bytes the decoded value holds in strings
	// and slices beyond the struct itself.
	memoBytes() int
}] struct {
	mu    sync.RWMutex
	m     map[string]*T
	bytes int
}

// decode returns the decoded value for body, which callers must treat
// as read-only. The result is shared with every later call for the same
// bytes.
func (bm *bodyMemo[T, P]) decode(body []byte) (*T, error) {
	bm.mu.RLock()
	v, ok := bm.m[string(body)]
	bm.mu.RUnlock()
	if ok {
		return v, nil
	}
	v = new(T)
	if err := decodeOne(json.NewDecoder(bytes.NewReader(body)), v); err != nil {
		return nil, err
	}
	cost := len(body) + P(v).memoBytes() + memoEntryBytes
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if _, dup := bm.m[string(body)]; dup || cost > memoMaxBytes {
		return v, nil
	}
	if bm.m == nil || bm.bytes+cost > memoMaxBytes {
		bm.m = make(map[string]*T)
		bm.bytes = 0
	}
	bm.m[string(body)] = v
	bm.bytes += cost
	return v, nil
}
