package respcache

import (
	"net/http"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// BenchmarkRespCache measures the steady-state hit path — lookup, LRU
// bump, header install — which must stay allocation-free.
func BenchmarkRespCache(b *testing.B) {
	c := New("bench", 1<<20, obs.NewRegistry("bench"))
	body := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		c.Add([]byte("k"+strconv.Itoa(i)), Entry{Body: body, ETag: `"v1"`})
	}
	key := []byte("k17")
	h := make(http.Header)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, ok := c.Get(key)
		if !ok {
			b.Fatal("miss")
		}
		e.SetHeaders(h)
	}
}
