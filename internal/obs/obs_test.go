package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("hits")
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if r.Counter("hits") != c {
		t.Fatal("second lookup returned a different handle")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry("t")
	g := r.Gauge("inflight")
	g.Set(2.5)
	g.Add(1.5)
	g.Dec()
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge after balanced inc/dec = %v, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0001, 50, 1e6, math.Inf(1)} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	want := []int64{2, 1, 1, 2}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{1, 1}, {2, 1}, {math.NaN()}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRegistry("t")
	done := r.Span("op.seconds")
	time.Sleep(2 * time.Millisecond)
	done()
	h := r.Histogram("op.seconds", nil)
	if h.Count() != 1 {
		t.Fatalf("span observations = %d, want 1", h.Count())
	}
	if h.Sum() < 0.002 || h.Sum() > 5 {
		t.Fatalf("span duration %v implausible", h.Sum())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry("snap")
	r.Counter("a.b").Add(7)
	r.Gauge("g").Set(1.25)
	r.Histogram("h", []float64{1, 2}).Observe(1.5)
	r.Histogram("h", []float64{999}).Observe(3) // existing bounds win

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.Registry != "snap" || back.Counters["a.b"] != 7 || back.Gauges["g"] != 1.25 {
		t.Fatalf("snapshot round trip: %+v", back)
	}
	hs := back.Histograms["h"]
	if hs.Count != 2 || hs.Sum != 4.5 || hs.Mean != 2.25 {
		t.Fatalf("histogram snapshot: %+v", hs)
	}
	if got := len(hs.Buckets); got != 3 {
		t.Fatalf("bucket count %d, want 3 (incl. +Inf)", got)
	}
	if hs.Buckets[2].LE != "+Inf" || hs.Buckets[2].Count != 1 {
		t.Fatalf("overflow bucket: %+v", hs.Buckets[2])
	}
	if !strings.Contains(buf.String(), `"+Inf"`) {
		t.Fatal("overflow bound not rendered as string")
	}
}

// TestSnapshotSanitizesNonFinite locks the guard that keeps /metrics
// alive when a series goes degenerate: encoding/json refuses NaN and
// ±Inf, so Snapshot must fold them to 0 instead of poisoning the
// whole endpoint.
func TestSnapshotSanitizesNonFinite(t *testing.T) {
	r := NewRegistry("nonfinite")
	r.Gauge("nan").Set(math.NaN())
	r.Gauge("posinf").Set(math.Inf(1))
	r.Gauge("neginf").Set(math.Inf(-1))
	r.Gauge("ok").Set(0.5)
	r.Histogram("h", []float64{1}).Observe(math.Inf(1))

	s := r.Snapshot()
	for _, name := range []string{"nan", "posinf", "neginf"} {
		if got := s.Gauges[name]; got != 0 {
			t.Fatalf("gauge %q = %v, want 0", name, got)
		}
	}
	if s.Gauges["ok"] != 0.5 {
		t.Fatalf("finite gauge disturbed: %v", s.Gauges["ok"])
	}
	if hs := s.Histograms["h"]; hs.Sum != 0 || hs.Mean != 0 {
		t.Fatalf("histogram Sum/Mean not sanitized: %+v", hs)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot with non-finite inputs must stay encodable: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("snapshot JSON invalid")
	}
}

// TestSnapshotConcurrentWithUpdates exercises Snapshot racing against
// registration and updates; meaningful under -race (make verify).
func TestSnapshotConcurrentWithUpdates(t *testing.T) {
	r := NewRegistry("race")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Counter("c").Inc()
			r.Histogram("h", nil).Observe(float64(i % 3))
			r.Gauge("g").Set(float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := r.Snapshot()
			if s.Counters["c"] < 0 {
				t.Error("negative counter")
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestDefaultRegistryIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return one shared registry")
	}
	done := Span("obs.test.span")
	done()
	if Default().Histogram("obs.test.span", nil).Count() == 0 {
		t.Fatal("package-level Span did not record into Default()")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBuckets)
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 0.001)
	}
}

func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry("bench")
	r.Counter("x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("x")
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry("bench")
	for i := 0; i < 20; i++ {
		r.Counter("c" + string(rune('a'+i))).Add(int64(i))
		r.Histogram("h"+string(rune('a'+i)), nil).Observe(float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Snapshot(); len(s.Counters) != 20 {
			b.Fatal("bad snapshot")
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"A", "a"},
		{"metro", "metro"},
		{"METRO/s01", "metro_s01"},
		{"Region B", "region_b"},
		{"a--b..c", "a_b_c"}, // runs collapse to one separator
		{"--edge--", "edge"}, // leading/trailing separators trim
		{"..", "_"},          // nothing usable
		{"", "_"},
		{"x9", "x9"},
	}
	for _, tc := range cases {
		if got := SanitizeMetricName(tc.in); got != tc.want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
