package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/obs"
)

// counterDeltas reads the singleflight counters so tests can assert on
// deltas — the obs registry is process-global, so absolute values carry
// history from other tests.
type sfCounts struct{ hits, misses, cached, failures int64 }

func readSF() sfCounts {
	reg := obs.Default()
	return sfCounts{
		hits:     reg.Counter("serve.train.singleflight.hits").Value(),
		misses:   reg.Counter("serve.train.singleflight.misses").Value(),
		cached:   reg.Counter("serve.train.cached_hits").Value(),
		failures: reg.Counter("serve.train.failures").Value(),
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	net, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, log.New(io.Discard, "", 0), pipefail.WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get is getShard on the default shard, the single-region entry point
// the tests drive.
func (s *Server) get(ctx context.Context, name string) (*modelSnapshot, error) {
	return s.getShard(ctx, s.def, name)
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndNetwork(t *testing.T) {
	_, ts := newTestServer(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("health %v", health)
	}
	var netInfo map[string]any
	if code := getJSON(t, ts.URL+"/api/network", &netInfo); code != 200 {
		t.Fatalf("network status %d", code)
	}
	if netInfo["region"] != "A" {
		t.Fatalf("network %v", netInfo)
	}
	if netInfo["test_year"].(float64) != 2009 {
		t.Fatalf("test year %v", netInfo["test_year"])
	}
}

func TestModelListAndTraining(t *testing.T) {
	_, ts := newTestServer(t)
	var models []map[string]any
	if code := getJSON(t, ts.URL+"/api/models", &models); code != 200 {
		t.Fatalf("models status %d", code)
	}
	if len(models) != len(pipefail.Models()) {
		t.Fatalf("%d models listed", len(models))
	}
	for _, m := range models {
		if m["trained"].(bool) {
			t.Fatalf("model %v trained before any request", m["name"])
		}
	}

	var st map[string]any
	if code := postJSON(t, ts.URL+"/api/models/Cox/train", nil, &st); code != 200 {
		t.Fatalf("train status %d: %v", code, st)
	}
	if st["auc"].(float64) <= 0.4 {
		t.Fatalf("train result %v", st)
	}

	// Unknown model.
	var e map[string]any
	if code := postJSON(t, ts.URL+"/api/models/Nope/train", nil, &e); code != 400 {
		t.Fatalf("unknown model status %d", code)
	}

	// Now the list shows Cox as trained.
	if code := getJSON(t, ts.URL+"/api/models", &models); code != 200 {
		t.Fatal("relist failed")
	}
	found := false
	for _, m := range models {
		if m["name"] == "Cox" && m["trained"].(bool) {
			found = true
		}
	}
	if !found {
		t.Fatal("Cox not marked trained")
	}
}

// TestModelsAllocsFlatWithRegionSize: GET /api/models reads each
// snapshot's test-year AUC and detection rate stored at publish, so it
// allocates the same, in count and in bytes, whatever the region's size.
func TestModelsAllocsFlatWithRegionSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(scale float64) (allocs float64, bytes uint64) {
		d, err := pipefail.GenerateRegion("A", 5, scale)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(d, log.New(io.Discard, "", 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Heuristic-Age", "Heuristic-Length"} {
			if _, err := s.get(context.Background(), name); err != nil {
				t.Fatal(err)
			}
		}
		w := &nopWriter{h: make(http.Header)}
		r := httptest.NewRequest("GET", "/api/models", nil)
		get := func() { s.handleModels(w, r) }
		allocs = testing.AllocsPerRun(50, get)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(0.04)
	largeAllocs, largeBytes := measure(0.5)
	if largeAllocs != smallAllocs || largeBytes > smallBytes+512 {
		t.Fatalf("GET /api/models: %v allocs, %d B at scale 0.5; %v allocs, %d B at scale 0.04",
			largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}

func TestRankingEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var ranking []map[string]any
	if code := getJSON(t, ts.URL+"/api/models/Heuristic-Age/ranking?top=7", &ranking); code != 200 {
		t.Fatalf("ranking status %d", code)
	}
	if len(ranking) != 7 {
		t.Fatalf("ranking size %d", len(ranking))
	}
	prev := 1e18
	for i, r := range ranking {
		if int(r["rank"].(float64)) != i+1 {
			t.Fatalf("rank field %v at %d", r["rank"], i)
		}
		score := r["score"].(float64)
		if score > prev {
			t.Fatal("ranking not sorted by score")
		}
		prev = score
	}
	var e map[string]any
	if code := getJSON(t, ts.URL+"/api/models/Heuristic-Age/ranking?top=zero", &e); code != 400 {
		t.Fatalf("bad top status %d", code)
	}
}

func TestPipeEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	id := s.def.data.Pipes()[0].ID
	var pipe map[string]any
	if code := getJSON(t, ts.URL+"/api/pipes/"+id, &pipe); code != 200 {
		t.Fatalf("pipe status %d", code)
	}
	if pipe["id"] != id || pipe["material"] == "" {
		t.Fatalf("pipe %v", pipe)
	}
	if code := getJSON(t, ts.URL+"/api/pipes/GHOST", nil); code != 404 {
		t.Fatalf("ghost pipe status %d", code)
	}
	// After training, per-pipe scores appear.
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, nil); code != 200 {
		t.Fatal("train failed")
	}
	if code := getJSON(t, ts.URL+"/api/pipes/"+id, &pipe); code != 200 {
		t.Fatal("pipe refetch failed")
	}
	if _, ok := pipe["scores"]; !ok {
		t.Fatalf("pipe response missing scores: %v", pipe)
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := map[string]any{"model": "Logistic", "budget_km": 5}
	var resp map[string]any
	if code := postJSON(t, ts.URL+"/api/plan", req, &resp); code != 200 {
		t.Fatalf("plan status %d: %v", code, resp)
	}
	if resp["model"] != "Logistic" {
		t.Fatalf("plan %v", resp)
	}
	if resp["total_km"].(float64) > 5+1e-9 {
		t.Fatalf("plan exceeds budget: %v", resp)
	}
	// Malformed body.
	r, err := http.Post(ts.URL+"/api/plan", "application/json", bytes.NewBufferString("{"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 400 {
		t.Fatalf("malformed body status %d", r.StatusCode)
	}
	// No budget at all.
	var e map[string]any
	if code := postJSON(t, ts.URL+"/api/plan", map[string]any{"model": "Logistic"}, &e); code != 400 {
		t.Fatalf("no-budget status %d: %v", code, e)
	}
}

func TestCohortsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for _, by := range []string{"", "material", "age", "diameter"} {
		var rows []map[string]any
		if code := getJSON(t, ts.URL+"/api/cohorts?by="+by, &rows); code != 200 {
			t.Fatalf("cohorts by=%q status %d", by, code)
		}
		if len(rows) == 0 {
			t.Fatalf("cohorts by=%q empty", by)
		}
	}
	if code := getJSON(t, ts.URL+"/api/cohorts?by=phase_of_moon", nil); code != 400 {
		t.Fatal("unknown dimension must 400")
	}
}

func TestHotspotsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var hot []map[string]any
	if code := getJSON(t, ts.URL+"/api/hotspots?min=1", &hot); code != 200 {
		t.Fatalf("hotspots status %d", code)
	}
	if len(hot) == 0 {
		t.Fatal("no hotspots at min=1 on a network with failures")
	}
	if code := getJSON(t, ts.URL+"/api/hotspots?min=banana", nil); code != 400 {
		t.Fatal("bad min must 400")
	}
}

// TestMetricsEndpoint drives the full train→rank→plan sequence and then
// asserts GET /metrics exposes the request latency histograms, the train
// singleflight counters and the per-model fit-duration histograms that
// the sequence must have produced.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	before := readSF()

	if code := postJSON(t, ts.URL+"/api/models/Logistic/train", nil, nil); code != 200 {
		t.Fatal("train failed")
	}
	if code := getJSON(t, ts.URL+"/api/models/Logistic/ranking?top=5", nil); code != 200 {
		t.Fatal("ranking failed")
	}
	if code := postJSON(t, ts.URL+"/api/plan", map[string]any{"model": "Logistic", "budget_km": 3}, nil); code != 200 {
		t.Fatal("plan failed")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics is not a JSON snapshot: %v", err)
	}

	// Request latency histograms per endpoint.
	for _, route := range []string{"train", "ranking", "plan"} {
		h, ok := snap.Histograms["serve.request_seconds."+route]
		if !ok || h.Count < 1 {
			t.Errorf("missing/empty latency histogram for %s: %+v", route, h)
		}
		if snap.Counters["serve.requests."+route] < 1 {
			t.Errorf("request counter for %s did not move", route)
		}
	}
	// Singleflight counters: the train + the plan's model reuse.
	if snap.Counters["serve.train.singleflight.misses"] < before.misses+1 {
		t.Error("singleflight miss not counted for the first train")
	}
	if snap.Counters["serve.train.cached_hits"] < before.cached+2 {
		t.Error("ranking+plan should have hit the trained-model cache")
	}
	// Per-model fit duration recorded by the pipeline.
	if h, ok := snap.Histograms["core.fit_seconds.Logistic"]; !ok || h.Count < 1 {
		t.Errorf("per-model fit duration missing: %+v", snap.Histograms["core.fit_seconds.Logistic"])
	}
	// In-flight gauge exists and is back to a sane value.
	if g, ok := snap.Gauges["serve.inflight"]; !ok || g < 1 {
		t.Errorf("in-flight gauge %v (the /metrics request itself is in flight)", g)
	}
}

// TestMetricsRuntimeGauges: every /metrics scrape reports the process's
// live heap, heap goal and GC cycle count from runtime/metrics, all
// non-zero once a collection has run, and the cycle count never goes
// backwards across scrapes.
func TestMetricsRuntimeGauges(t *testing.T) {
	_, ts := newTestServer(t)
	var last float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		var snap obs.Snapshot
		if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		for _, name := range []string{"proc.heap_live_bytes", "proc.heap_goal_bytes", "proc.gc_cycles"} {
			if v := snap.Gauges[name]; v <= 0 {
				t.Fatalf("scrape %d: %s = %v, want > 0", i, name, v)
			}
		}
		cycles := snap.Gauges["proc.gc_cycles"]
		if cycles < last {
			t.Fatalf("scrape %d: proc.gc_cycles fell from %v to %v", i, last, cycles)
		}
		last = cycles
	}
}

// TestTrainFailureNotCached injects a one-shot training failure through
// the trainFn seam and asserts the failure is returned, counted, and
// NOT cached: the next request retrains and succeeds.
func TestTrainFailureNotCached(t *testing.T) {
	s, ts := newTestServer(t)
	before := readSF()

	realTrain := s.trainFn
	failures := 0
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		failures++
		return nil, errors.New("injected training failure")
	}

	var e map[string]any
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, &e); code != 503 {
		t.Fatalf("failed train status %d, want 503 (internal failures are the service's fault)", code)
	}
	if !strings.Contains(e["error"].(string), "injected") {
		t.Fatalf("error body %v", e)
	}
	if got := readSF(); got.failures != before.failures+1 {
		t.Fatalf("train failure counter = %d, want %d", got.failures, before.failures+1)
	}

	// The failed run must not be cached: restore training and retry.
	s.trainFn = realTrain
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, nil); code != 200 {
		t.Fatal("retry after failure did not retrain")
	}
	if failures != 1 {
		t.Fatalf("injected trainer ran %d times, want 1", failures)
	}
	if got := readSF(); got.misses != before.misses+2 {
		t.Fatalf("miss counter = %d, want %d (failed run + retry both start fresh)", got.misses, before.misses+2)
	}
}

func TestRankingUnknownModel(t *testing.T) {
	_, ts := newTestServer(t)
	var e map[string]any
	if code := getJSON(t, ts.URL+"/api/models/NoSuchModel/ranking", &e); code != 400 {
		t.Fatalf("unknown model ranking status %d, want 400", code)
	}
	if !strings.Contains(e["error"].(string), "unknown model") {
		t.Fatalf("error body %v", e)
	}
}

func TestPlanBadBudget(t *testing.T) {
	_, ts := newTestServer(t)
	var e map[string]any
	if code := postJSON(t, ts.URL+"/api/plan", map[string]any{"model": "Logistic", "budget_km": -4}, &e); code != 400 {
		t.Fatalf("negative budget status %d, want 400", code)
	}
	if e["error"] == "" {
		t.Fatal("no error body for bad budget")
	}
}

// TestErrorResponsesHaveJSONContentType pins the writeErr fix: the
// Content-Type header must be set before the status is written.
func TestErrorResponsesHaveJSONContentType(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/models/NoSuchModel/ranking")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type %q, want application/json", ct)
	}
	if c := obs.Default().Counter("serve.errors.ranking").Value(); c < 1 {
		t.Error("error counter for ranking did not move")
	}
}

func TestConcurrentTrainingRequests(t *testing.T) {
	// A dedicated server whose log feeds a buffer, so the test can count
	// training runs. log.Logger serializes writes; the buffer is only read
	// after every request has completed.
	net, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	s, err := New(net, log.New(&logBuf, "", 0), pipefail.WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := readSF()
	const requests = 8
	var wg sync.WaitGroup
	errs := make(chan string, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/models/Heuristic-Length/train", "application/json", nil)
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			// Singleflight contract: every concurrent request succeeds —
			// the first trains, the rest block on the in-flight run. No
			// "retry shortly" refusals.
			if resp.StatusCode != 200 {
				body, _ := io.ReadAll(resp.Body)
				errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Exactly one training run served all eight requests.
	if got := strings.Count(logBuf.String(), "serve: trained Heuristic-Length"); got != 1 {
		t.Fatalf("training ran %d times, want exactly 1; log:\n%s", got, logBuf.String())
	}
	// The singleflight counters agree: one miss started the run, and the
	// other seven either joined it in flight or (if they arrived after it
	// published) hit the trained cache.
	after := readSF()
	if after.misses != before.misses+1 {
		t.Fatalf("singleflight misses = %d, want %d", after.misses, before.misses+1)
	}
	if joined := (after.hits - before.hits) + (after.cached - before.cached); joined != requests-1 {
		t.Fatalf("hits+cached = %d, want %d", joined, requests-1)
	}
	if after.failures != before.failures {
		t.Fatalf("unexpected train failures: %d", after.failures-before.failures)
	}
	// Still trained and stable afterwards.
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Length/train", nil, nil); code != 200 {
		t.Fatalf("final train status %d", code)
	}
	if got := readSF(); got.cached != after.cached+1 {
		t.Fatalf("final train should be a cache hit (cached %d → %d)", after.cached, got.cached)
	}
}
