package serve

// Tests for the snapshot-and-cache read path: strict parameter parsing,
// explicit-zero plan rejection, ETag/304 handling, byte-identity with
// the per-request implementation the snapshots replaced, the
// zero-allocation cache-hit gate, and concurrent read-while-training
// behavior (run under -race by `make verify`).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
)

func TestRankingRejectsMalformedTop(t *testing.T) {
	_, ts := newTestServer(t)
	// Sscanf-style parsing accepted trailing garbage ("5x" scanned as 5);
	// strconv.Atoi must 400 every one of these.
	for _, bad := range []string{"5x", "0x5", "+5x", "%205", "5.0"} {
		var e map[string]any
		code := getJSON(t, ts.URL+"/api/models/Heuristic-Age/ranking?top="+bad, &e)
		if code != 400 {
			t.Errorf("top=%q: status %d, want 400", bad, code)
		}
	}
	// Plain integers still parse ("+3" is excluded: '+' is an encoded
	// space in a query string, so it reads as " 3" and is rightly bad).
	for _, good := range []string{"3", "%2B3"} {
		var rows []map[string]any
		if code := getJSON(t, ts.URL+"/api/models/Heuristic-Age/ranking?top="+good, &rows); code != 200 || len(rows) != 3 {
			t.Errorf("top=%q: status %d rows %d", good, code, len(rows))
		}
	}
}

func TestHotspotsRejectsMalformedMin(t *testing.T) {
	_, ts := newTestServer(t)
	for _, bad := range []string{"2x", "1e1", "%202", "0x2"} {
		if code := getJSON(t, ts.URL+"/api/hotspots?min="+bad, nil); code != 400 {
			t.Errorf("min=%q: status %d, want 400", bad, code)
		}
	}
}

func TestPlanExplicitZeroCostsRejected(t *testing.T) {
	_, ts := newTestServer(t)
	for _, req := range []map[string]any{
		{"model": "Logistic", "budget_km": 3, "inspection_per_km": 0},
		{"model": "Logistic", "budget_km": 3, "failure_cost": 0},
	} {
		var e map[string]any
		if code := postJSON(t, ts.URL+"/api/plan", req, &e); code != 400 {
			t.Fatalf("explicit zero %v: status %d, want 400", req, code)
		}
		if !strings.Contains(e["error"].(string), "explicitly 0") {
			t.Fatalf("error body %v", e)
		}
	}
	// Omitting the fields still prices with the defaults, and explicit
	// non-zero values are honored.
	var resp map[string]any
	if code := postJSON(t, ts.URL+"/api/plan",
		map[string]any{"model": "Logistic", "budget_km": 3, "inspection_per_km": 9000, "failure_cost": 120000},
		&resp); code != 200 {
		t.Fatalf("explicit non-zero costs: status %d: %v", code, resp)
	}
}

// TestRankingByteIdentityWithPerRequestPath pins the tentpole's
// compatibility contract: the snapshot-served body is byte-identical to
// what the old per-request implementation (TopIDs + rankIdx lookup +
// calibrator.Prob per row) produced.
func TestRankingByteIdentityWithPerRequestPath(t *testing.T) {
	s, ts := newTestServer(t)
	for _, top := range []int{1, 7, 50, 1 << 20} {
		resp, err := http.Get(fmt.Sprintf("%s/api/models/Logistic/ranking?top=%d", ts.URL, top))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("top=%d status %d", top, resp.StatusCode)
		}

		tm, err := s.get(context.Background(), "Logistic")
		if err != nil {
			t.Fatal(err)
		}
		ids := tm.ranking.TopIDs(top)
		legacy := make([]rankedPipe, 0, len(ids))
		for i, id := range ids {
			rp := rankedPipe{Rank: i + 1, PipeID: id, Score: tm.ranking.Scores[tm.rankIdx[id]]}
			if tm.calibrator != nil {
				rp.FailProb = tm.calibrator.Prob(rp.Score)
			}
			legacy = append(legacy, rp)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(legacy); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("top=%d: snapshot body diverges from per-request encoding\ngot:  %.120s\nwant: %.120s",
				top, body, want.Bytes())
		}
		if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
			t.Fatalf("Content-Length %q for %d-byte body", cl, len(body))
		}
	}
}

func TestRankingETagAnd304(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/api/models/Heuristic-Age/ranking?top=5"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("Etag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing/unquoted ETag %q", etag)
	}

	// Same URL again: byte-identical replay, same validator.
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body1, body2) || resp.Header.Get("Etag") != etag {
		t.Fatal("replayed response differs from first encoding")
	}

	// Conditional request: 304, no body.
	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	notBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET status %d, want 304", resp.StatusCode)
	}
	if len(notBody) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(notBody))
	}
	if resp.Header.Get("Etag") != etag {
		t.Fatalf("304 ETag %q, want %q", resp.Header.Get("Etag"), etag)
	}

	// A stale validator gets the full body again.
	req.Header.Set("If-None-Match", `"r-stale"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(body1, body3) {
		t.Fatalf("stale validator: status %d", resp.StatusCode)
	}

	// Different top values carry the same snapshot validator: the ETag
	// versions the model's ranking, per-URL.
	resp, err = http.Get(ts.URL + "/api/models/Heuristic-Age/ranking?top=9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Etag") != etag {
		t.Fatalf("top=9 ETag %q, want snapshot tag %q", resp.Header.Get("Etag"), etag)
	}
}

func TestCohortsAndHotspotsCached(t *testing.T) {
	s, ts := newTestServer(t)
	hits0 := cacheCounter("hits")
	for i := 0; i < 2; i++ {
		if code := getJSON(t, ts.URL+"/api/cohorts?by=age", nil); code != 200 {
			t.Fatalf("cohorts status %d", code)
		}
		if code := getJSON(t, ts.URL+"/api/hotspots?min=1", nil); code != 200 {
			t.Fatalf("hotspots status %d", code)
		}
	}
	// Default and explicit material share one canonical entry.
	if code := getJSON(t, ts.URL+"/api/cohorts", nil); code != 200 {
		t.Fatal("default cohorts failed")
	}
	if code := getJSON(t, ts.URL+"/api/cohorts?by=material", nil); code != 200 {
		t.Fatal("material cohorts failed")
	}
	if got := cacheCounter("hits") - hits0; got < 3 {
		t.Fatalf("response cache hits = %d, want >= 3 (repeat cohorts, repeat hotspots, canonical material)", got)
	}
	keys := s.def.cache.Keys()
	for _, k := range keys {
		if strings.HasPrefix(k, "cohorts\x00") && strings.HasSuffix(k, "\x00") {
			t.Fatalf("non-canonical empty cohort key cached: %q", keys)
		}
	}
}

// TestRankingCacheHitZeroAlloc is the `make verify` allocation gate for
// the serve fast path: once a ranking response is cached, replaying it
// (snapshot load, key build, LRU hit, header set, body write) must not
// allocate. Run outside -race, which instruments allocations.
func TestRankingCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate runs without -race: race instrumentation and sync.Pool randomization inflate counts")
	}
	s, ts := newTestServer(t)
	defer ts.Close()
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/api/models/Heuristic-Age/ranking?top=25", nil)
	req.SetPathValue("name", "Heuristic-Age")
	w := &nopWriter{h: make(http.Header)}
	s.handleRanking(w, req) // warm: fill the cache, size the pools
	allocs := testing.AllocsPerRun(500, func() {
		s.handleRanking(w, req)
	})
	if allocs != 0 {
		t.Fatalf("ranking cache hit allocated %.1f times per request, want 0", allocs)
	}

	// The 304 path must be allocation-free too.
	tm, _ := s.get(context.Background(), "Heuristic-Age")
	req.Header.Set("If-None-Match", tm.etag)
	allocs = testing.AllocsPerRun(500, func() {
		s.handleRanking(w, req)
	})
	if allocs != 0 {
		t.Fatalf("ranking 304 path allocated %.1f times per request, want 0", allocs)
	}
}

func cacheCounter(name string) int64 {
	return obs.Default().Counter("respcache.serve." + name).Value()
}

// post is a goroutine-safe POST helper (no t.Fatal): status plus body.
func post(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// TestConcurrentReadsDuringColdTrain hammers /ranking and /plan for a
// warm model from many goroutines while a cold model trains and
// publishes, asserting every read sees a complete, consistent snapshot
// (the -race run in `make verify` additionally proves no torn reads).
func TestConcurrentReadsDuringColdTrain(t *testing.T) {
	_, ts := newTestServer(t)
	// Warm one model so readers have something to hammer.
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, nil); code != 200 {
		t.Fatal("warmup train failed")
	}
	var warmBody []byte
	{
		resp, err := http.Get(ts.URL + "/api/models/Heuristic-Age/ranking?top=10")
		if err != nil {
			t.Fatal(err)
		}
		warmBody, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
	}

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers*2+1)

	// Cold train runs concurrently with the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, body, err := post(ts.URL+"/api/models/Heuristic-Length/train", "")
		if err != nil || code != 200 {
			errs <- fmt.Sprintf("cold train status %d err %v: %s", code, err, body)
		}
	}()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Get(ts.URL + "/api/models/Heuristic-Age/ranking?top=10")
				if err != nil {
					errs <- err.Error()
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 || !bytes.Equal(body, warmBody) {
					errs <- fmt.Sprintf("torn ranking read: status %d body %.80s", resp.StatusCode, body)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				code, body, err := post(ts.URL+"/api/plan", `{"model":"Heuristic-Age","budget_km":3}`)
				if err != nil || code != 200 {
					errs <- fmt.Sprintf("plan status %d err %v: %.80s", code, err, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentColdRankingConverges races 16 cache-cold requests for
// one ranking: all join the same training run, then all miss the
// response cache at once. Nothing coordinates the fills, so several may
// encode their own copy, but every response must carry the same bytes
// and ETag, and the cache must hold the key exactly once.
func TestConcurrentColdRankingConverges(t *testing.T) {
	s, ts := newTestServer(t)
	const workers = 16
	bodies := make([][]byte, workers)
	etags := make([]string, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/api/models/Heuristic-Age/ranking?top=7")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			etags[i] = resp.Header.Get("Etag")
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			if errs[i] == nil && resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[i])
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) || etags[i] != etags[0] || etags[i] == "" {
			t.Fatalf("request %d diverged: etag %q vs %q, body %.60s vs %.60s",
				i, etags[i], etags[0], bodies[i], bodies[0])
		}
	}
	tm, err := s.get(context.Background(), "Heuristic-Age")
	if err != nil {
		t.Fatal(err)
	}
	if etags[0] != tm.etag {
		t.Fatalf("etag %q, want the snapshot's %q", etags[0], tm.etag)
	}
	want := string(appendRankingKey(nil, "Heuristic-Age", tm.etag, 7))
	if keys := s.def.cache.Keys(); len(keys) != 1 || keys[0] != want {
		t.Fatalf("cache keys %q, want exactly %q", keys, want)
	}
}

// TestFillErrorNeverCached pins the Get/Add contract on the plan path:
// a plan that fails validation (400) and a plan against a model without
// a calibrator (409) fail the same way on every request, single or bulk,
// and leave no cache entry behind.
func TestFillErrorNeverCached(t *testing.T) {
	s, ts := newTestServer(t)
	realTrain := s.trainFn
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		tm, err := realTrain(ctx, sh, name)
		if err != nil {
			return nil, err
		}
		switch name {
		case "Heuristic-Age": // a zero-length candidate fails plan validation
			tm.cands[0].LengthM = 0
			tm.planDefault = nil
		case "Heuristic-Length":
			tm.calibrator = nil
		}
		return tm, nil
	}
	for _, tc := range []struct {
		model string
		code  int
		msg   string
	}{
		{"Heuristic-Age", 400, "non-positive length"},
		{"Heuristic-Length", 409, "no calibrator"},
	} {
		body := `{"model":"` + tc.model + `","budget_km":3}`
		for i := 0; i < 2; i++ {
			code, resp, err := post(ts.URL+"/api/plan", body)
			if err != nil {
				t.Fatal(err)
			}
			if code != tc.code || !strings.Contains(string(resp), tc.msg) {
				t.Fatalf("%s plan: status %d %s, want %d naming %q", tc.model, code, resp, tc.code, tc.msg)
			}
		}
		code, raw, err := post(ts.URL+"/api/bulk/plan", body)
		if err != nil {
			t.Fatal(err)
		}
		if code != 200 || !strings.Contains(string(raw), `"error":`) || !strings.Contains(string(raw), tc.msg) {
			t.Fatalf("%s bulk plan: status %d %s, want an error line naming %q", tc.model, code, raw, tc.msg)
		}
	}
	for _, k := range s.def.cache.Keys() {
		if strings.HasPrefix(k, "plan\x00") {
			t.Fatalf("failed plan left cache entry %q", k)
		}
	}
}

// TestFailedTrainPopulatesNothing injects training failures and asserts
// concurrent ranking requests all fail cleanly with no model published
// and no response-cache entry left behind.
func TestFailedTrainPopulatesNothing(t *testing.T) {
	s, ts := newTestServer(t)
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		return nil, errors.New("injected cold-train failure")
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/models/RankBoost/ranking?top=5")
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 503 {
				errs <- fmt.Sprintf("failed-train ranking status %d, want 503", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if _, ok := (*s.def.models.Load())["RankBoost"]; ok {
		t.Fatal("failed train published a model snapshot")
	}
	for _, k := range s.def.cache.Keys() {
		if strings.Contains(k, "RankBoost") {
			t.Fatalf("failed train left cache entry %q", k)
		}
	}
}

// TestPlanRejectsNegativeBudgets pins the validation fix: negative
// budget dimensions used to read as "unconstrained" (the planner treats
// <= 0 as unset), silently planning against the remaining dimensions or
// none at all. They are now 400s.
func TestPlanRejectsNegativeBudgets(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"model":"Heuristic-Age","budget_km":-4}`,
		`{"model":"Heuristic-Age","budget_km":3,"max_pipes":-1}`,
		`{"model":"Heuristic-Age","budget_km":3,"max_spend":-5}`,
	} {
		code, resp, err := post(ts.URL+"/api/plan", body)
		if err != nil {
			t.Fatal(err)
		}
		if code != 400 || !strings.Contains(string(resp), "negative") {
			t.Fatalf("body %s: status %d resp %s, want 400 naming the negative field", body, code, resp)
		}
	}
}

// TestPlanMaxSpend covers the previously unreachable Budget.MaxSpend
// dimension: explicit zero is rejected like the cost parameters, and a
// positive cap both plans successfully and actually constrains spend.
func TestPlanMaxSpend(t *testing.T) {
	_, ts := newTestServer(t)
	code, resp, err := post(ts.URL+"/api/plan", `{"model":"Heuristic-Age","budget_km":3,"max_spend":0}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != 400 || !strings.Contains(string(resp), "explicitly 0") {
		t.Fatalf("explicit-zero max_spend: status %d resp %s", code, resp)
	}

	const cap = 11000.0
	var out struct {
		InspectionCost float64  `json:"inspection_cost"`
		Pipes          []string `json:"pipes"`
	}
	code, body, err := post(ts.URL+"/api/plan", fmt.Sprintf(`{"model":"Heuristic-Age","max_spend":%g}`, cap))
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 {
		t.Fatalf("max_spend-only plan: status %d resp %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.InspectionCost > cap {
		t.Fatalf("inspection cost %v exceeds max_spend %v", out.InspectionCost, cap)
	}
	if len(out.Pipes) == 0 {
		t.Fatal("spend-capped plan selected nothing")
	}
}

// TestPlanByteIdentityWithGreedy pins the tentpole's compatibility
// contract end to end: across every budget dimension, combinations and
// custom cost models, the HTTP response bytes match what the original
// per-request plan.Greedy implementation encodes from the same snapshot.
func TestPlanByteIdentityWithGreedy(t *testing.T) {
	s, ts := newTestServer(t)
	tm, err := s.get(context.Background(), "Logistic")
	if err != nil {
		t.Fatal(err)
	}
	defaults := plan.CostModel{InspectionPerKM: defaultInspectionPerKM, FailureCost: defaultFailureCost}
	cases := []struct {
		body string
		cm   plan.CostModel
		b    plan.Budget
	}{
		{`{"model":"Logistic","budget_km":3}`, defaults, plan.Budget{MaxLengthM: 3000}},
		{`{"model":"Logistic","budget_km":2,"max_pipes":5}`, defaults, plan.Budget{MaxLengthM: 2000, MaxCount: 5}},
		{`{"model":"Logistic","max_pipes":7}`, defaults, plan.Budget{MaxCount: 7}},
		{`{"model":"Logistic","max_spend":20000}`, defaults, plan.Budget{MaxSpend: 20000}},
		{`{"model":"Logistic","budget_km":2.5,"max_pipes":3,"max_spend":12345.5}`, defaults,
			plan.Budget{MaxLengthM: 2500, MaxCount: 3, MaxSpend: 12345.5}},
		{`{"model":"Logistic","budget_km":4,"max_spend":15000,"inspection_per_km":9000,"failure_cost":120000}`,
			plan.CostModel{InspectionPerKM: 9000, FailureCost: 120000},
			plan.Budget{MaxLengthM: 4000, MaxSpend: 15000}},
	}
	for _, tc := range cases {
		code, got, err := post(ts.URL+"/api/plan", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if code != 200 {
			t.Fatalf("body %s: status %d resp %s", tc.body, code, got)
		}
		p, err := plan.Greedy(tm.cands, tc.cm, tc.b)
		if err != nil {
			t.Fatalf("body %s: greedy oracle: %v", tc.body, err)
		}
		resp := planResponse{
			Model:             "Logistic",
			TotalKM:           p.TotalLengthM / 1000,
			InspectionCost:    p.InspectionCost,
			ExpectedPrevented: p.ExpectedPrevented,
			ExpectedNet:       p.ExpectedNet,
		}
		if len(p.Selected) > 0 {
			resp.Pipes = p.IDs()
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("body %s: served plan diverges from plan.Greedy\ngot:  %.200s\nwant: %.200s", tc.body, got, want.Bytes())
		}
	}
}

// TestPlanCachedReplayETagAnd304: repeat plans replay from the response
// cache with a stable body ETag, textual aliases of one request share
// the entry, and If-None-Match turns into an empty 304.
func TestPlanCachedReplayETagAnd304(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/api/plan"
	body := `{"model":"Heuristic-Age","budget_km":3}`
	do := func(b, inm string) (*http.Response, []byte) {
		req, _ := http.NewRequest("POST", url, strings.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, rb
	}

	resp1, body1 := do(body, "")
	if resp1.StatusCode != 200 {
		t.Fatalf("first plan: status %d resp %s", resp1.StatusCode, body1)
	}
	etag := resp1.Header.Get("Etag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing/unquoted plan ETag %q", etag)
	}

	hits0 := obs.Default().Counter("serve.plan.cache_hits").Value()
	resp2, body2 := do(body, "")
	if resp2.StatusCode != 200 || !bytes.Equal(body1, body2) || resp2.Header.Get("Etag") != etag {
		t.Fatal("replayed plan differs from first encoding")
	}
	// A textual alias of the same request decodes to the same canonical
	// key and shares the cache entry.
	resp3, body3 := do(`{"budget_km":3.0,"max_pipes":0,"model":"Heuristic-Age"}`, "")
	if resp3.StatusCode != 200 || !bytes.Equal(body1, body3) {
		t.Fatal("aliased request missed the canonical cache entry")
	}
	if got := obs.Default().Counter("serve.plan.cache_hits").Value() - hits0; got < 2 {
		t.Fatalf("plan cache hits advanced %d, want >= 2 (replay + alias)", got)
	}

	resp4, body4 := do(body, etag)
	if resp4.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional plan status %d, want 304", resp4.StatusCode)
	}
	if len(body4) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(body4))
	}
	if resp4.Header.Get("Etag") != etag {
		t.Fatalf("304 ETag %q, want %q", resp4.Header.Get("Etag"), etag)
	}

	// A different budget is a different plan: fresh entry, fresh tag.
	resp5, body5 := do(`{"model":"Heuristic-Age","budget_km":1}`, "")
	if resp5.StatusCode != 200 || bytes.Equal(body1, body5) {
		t.Fatal("different budget served the cached plan")
	}
}

// TestPlanCacheHitZeroAlloc is the `make verify` allocation gate for the
// cached plan path: once a plan response is cached, replaying it (body
// read into pooled scratch, fast parse, snapshot load, key build, LRU
// hit, header set, body write) must not allocate — and neither may the
// 304 path. Run outside -race, which instruments allocations.
func TestPlanCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate runs without -race: race instrumentation and sync.Pool randomization inflate counts")
	}
	s, ts := newTestServer(t)
	defer ts.Close()
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		t.Fatal(err)
	}
	rb := &replayBody{r: bytes.NewReader([]byte(`{"model":"Heuristic-Age","budget_km":10,"max_pipes":25}`))}
	req := httptest.NewRequest("POST", "/api/plan", nil)
	req.Body = rb
	w := &nopWriter{h: make(http.Header)}
	rb.rewind()
	s.handlePlan(w, req) // warm: fill the cache, size the pools
	allocs := testing.AllocsPerRun(500, func() {
		rb.rewind()
		s.handlePlan(w, req)
	})
	if allocs != 0 {
		t.Fatalf("plan cache hit allocated %.1f times per request, want 0", allocs)
	}

	// Recover the entry's ETag through a recorder, then gate the 304 path.
	rec := httptest.NewRecorder()
	rb.rewind()
	s.handlePlan(rec, req)
	etag := rec.Header().Get("Etag")
	if etag == "" {
		t.Fatal("cached plan served no ETag")
	}
	req.Header.Set("If-None-Match", etag)
	allocs = testing.AllocsPerRun(500, func() {
		rb.rewind()
		s.handlePlan(w, req)
	})
	if allocs != 0 {
		t.Fatalf("plan 304 path allocated %.1f times per request, want 0", allocs)
	}
}

// TestQueryParamUndecodableIs400 pins the queryParam fix: a value whose
// percent-encoding fails to decode used to be passed through raw,
// masquerading as ordinary bad input; it is now a 400 naming the decode
// failure on every route that reads query parameters.
func TestQueryParamUndecodableIs400(t *testing.T) {
	_, ts := newTestServer(t)
	for _, u := range []string{
		"/api/models/Heuristic-Age/ranking?top=1%",
		"/api/hotspots?min=2%zz",
		"/api/cohorts?by=%zz",
	} {
		var e map[string]any
		code := getJSON(t, ts.URL+u, &e)
		if code != 400 {
			t.Errorf("%s: status %d, want 400", u, code)
			continue
		}
		if msg, _ := e["error"].(string); !strings.Contains(msg, "undecodable") {
			t.Errorf("%s: error %q does not name the decode failure", u, msg)
		}
	}
}
