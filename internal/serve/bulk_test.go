package serve

// Bulk streaming tests. The load-bearing property is byte-identity:
// every region line's payload must equal the corresponding single-call
// response body (modulo NDJSON framing), whether the segment resolved
// cold (bulk filled the cache) or cached (bulk replayed the single
// call's entry). Beyond that: request-order output, incremental
// flushing, per-segment error lines and the zero-allocation all-cached
// path.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/wal"
)

// bulkLine is the decoded NDJSON line shape shared by both bulk
// endpoints (region lines carry ranking or plan; pipe lines carry
// rank/score).
type bulkLine struct {
	Region   string          `json:"region"`
	PipeID   string          `json:"pipe_id"`
	Model    string          `json:"model"`
	ETag     string          `json:"etag"`
	Ranking  json.RawMessage `json:"ranking"`
	Plan     json.RawMessage `json:"plan"`
	Rank     int             `json:"rank"`
	Score    float64         `json:"score"`
	FailProb float64         `json:"fail_prob"`
	Error    string          `json:"error"`
}

// postBulk issues one bulk request and returns the status, the raw
// body and the response.
func postBulk(t *testing.T, url, body string) (int, []byte, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp
}

// bulkLines splits and decodes an NDJSON body.
func bulkLines(t *testing.T, raw []byte) []bulkLine {
	t.Helper()
	var out []bulkLine
	for _, ln := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var l bulkLine
		if err := json.Unmarshal(ln, &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		out = append(out, l)
	}
	return out
}

// getRaw fetches url and returns the body and ETag header.
func getRaw(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body, resp.Header.Get("ETag")
}

// TestBulkRankMatchesSingleCalls is the core byte-identity check, both
// directions: the first bulk call resolves cold (and fills the shard
// caches the single handlers then replay), the second resolves entirely
// from cache — both must match the standalone endpoint byte for byte.
func TestBulkRankMatchesSingleCalls(t *testing.T) {
	_, ts := newMultiTestServer(t)
	for pass, tag := range []string{"cold", "cached"} {
		code, raw, resp := postBulk(t, ts.URL+"/api/bulk/rank", `{"model":"Heuristic-Age","top":7}`)
		if code != 200 {
			t.Fatalf("%s bulk status %d: %s", tag, code, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type %q", ct)
		}
		lines := bulkLines(t, raw)
		if len(lines) != 2 || lines[0].Region != "A" || lines[1].Region != "B" {
			t.Fatalf("pass %d: lines %+v, want regions A then B", pass, lines)
		}
		for _, l := range lines {
			single, etag := getRaw(t, ts.URL+"/api/models/Heuristic-Age/ranking?top=7&region="+l.Region)
			want := bytes.TrimSuffix(single, []byte("\n"))
			if !bytes.Equal(l.Ranking, want) {
				t.Errorf("%s region %s: bulk ranking diverges from single call\nbulk:   %s\nsingle: %s",
					tag, l.Region, l.Ranking, want)
			}
			if quoted := `"` + l.ETag + `"`; quoted != etag {
				t.Errorf("%s region %s: bulk etag %s, single ETag %s", tag, l.Region, quoted, etag)
			}
		}
	}
}

// TestBulkRankAfterSingleCalls runs the other fill order: single calls
// populate the caches first, bulk must replay those exact entries.
func TestBulkRankAfterSingleCalls(t *testing.T) {
	_, ts := newMultiTestServer(t)
	singleA, _ := getRaw(t, ts.URL+"/api/models/Heuristic-Length/ranking?top=5&region=A")
	singleB, _ := getRaw(t, ts.URL+"/api/models/Heuristic-Length/ranking?top=5&region=B")

	// Regions in reverse request order: output must follow the request.
	code, raw, _ := postBulk(t, ts.URL+"/api/bulk/rank",
		`{"model":"Heuristic-Length","top":5,"regions":["B","A"]}`)
	if code != 200 {
		t.Fatalf("bulk status %d: %s", code, raw)
	}
	lines := bulkLines(t, raw)
	if len(lines) != 2 || lines[0].Region != "B" || lines[1].Region != "A" {
		t.Fatalf("lines %+v, want request order B then A", lines)
	}
	if want := bytes.TrimSuffix(singleB, []byte("\n")); !bytes.Equal(lines[0].Ranking, want) {
		t.Errorf("region B payload diverges\nbulk:   %s\nsingle: %s", lines[0].Ranking, want)
	}
	if want := bytes.TrimSuffix(singleA, []byte("\n")); !bytes.Equal(lines[1].Ranking, want) {
		t.Errorf("region A payload diverges\nbulk:   %s\nsingle: %s", lines[1].Ranking, want)
	}
}

func TestBulkPlanMatchesSingleCalls(t *testing.T) {
	_, ts := newMultiTestServer(t)
	const params = `"model":"Heuristic-Age","budget_km":3,"max_pipes":10`
	code, raw, _ := postBulk(t, ts.URL+"/api/bulk/plan", `{`+params+`,"regions":["B","A"]}`)
	if code != 200 {
		t.Fatalf("bulk plan status %d: %s", code, raw)
	}
	lines := bulkLines(t, raw)
	if len(lines) != 2 || lines[0].Region != "B" || lines[1].Region != "A" {
		t.Fatalf("lines %+v, want request order B then A", lines)
	}
	for _, l := range lines {
		if l.Error != "" {
			t.Fatalf("region %s error line: %s", l.Region, l.Error)
		}
		resp, err := http.Post(ts.URL+"/api/plan", "application/json",
			strings.NewReader(`{`+params+`,"region":"`+l.Region+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		single, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("single plan region %s: %d %v: %s", l.Region, resp.StatusCode, err, single)
		}
		if want := bytes.TrimSuffix(single, []byte("\n")); !bytes.Equal(l.Plan, want) {
			t.Errorf("region %s plan diverges\nbulk:   %s\nsingle: %s", l.Region, l.Plan, want)
		}
	}
}

// bulkPipeLine mirrors appendPipeLine's field order so json.Marshal of
// the expected values must reproduce the hand-built line exactly.
type bulkPipeLine struct {
	PipeID   string  `json:"pipe_id"`
	Region   string  `json:"region"`
	Model    string  `json:"model"`
	Rank     int     `json:"rank"`
	Score    float64 `json:"score"`
	FailProb float64 `json:"fail_prob,omitempty"`
}

func TestBulkRankPipeLines(t *testing.T) {
	s, ts := newMultiTestServer(t)
	ctx := context.Background()
	shB := s.byRegion["B"]
	tmA, err := s.get(ctx, "Heuristic-Age")
	if err != nil {
		t.Fatal(err)
	}
	tmB, err := s.getShard(ctx, shB, "Heuristic-Age")
	if err != nil {
		t.Fatal(err)
	}
	// Ranked pipes from each shard's snapshot: cross-shard resolution
	// must route each ID to the shard that owns it.
	idA, idB := tmA.entries[0].PipeID, tmB.entries[2].PipeID

	code, raw, _ := postBulk(t, ts.URL+"/api/bulk/rank",
		fmt.Sprintf(`{"model":"Heuristic-Age","pipe_ids":[%q,%q]}`, idB, idA))
	if code != 200 {
		t.Fatalf("bulk pipe status %d: %s", code, raw)
	}
	rawLines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(rawLines) != 2 {
		t.Fatalf("got %d lines: %s", len(rawLines), raw)
	}
	for i, want := range []bulkPipeLine{
		{PipeID: idB, Region: "B", Model: "Heuristic-Age", Rank: tmB.entries[2].Rank,
			Score: tmB.entries[2].Score, FailProb: tmB.entries[2].FailProb},
		{PipeID: idA, Region: "A", Model: "Heuristic-Age", Rank: tmA.entries[0].Rank,
			Score: tmA.entries[0].Score, FailProb: tmA.entries[0].FailProb},
	} {
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rawLines[i], wantBytes) {
			t.Errorf("pipe line %d diverges from stdlib rendering\ngot:  %s\nwant: %s",
				i, rawLines[i], wantBytes)
		}
	}
}

// TestBulkRankStreamsIncrementally gates region B's training behind a
// channel and checks region A's line arrives on the wire before B
// resolves — the stream must flush per line, not buffer until the end.
func TestBulkRankStreamsIncrementally(t *testing.T) {
	s, ts := newMultiTestServer(t)
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		t.Fatal(err) // pre-train A so its segment resolves in phase 1
	}
	release := make(chan struct{})
	realTrain := s.train
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		if sh.region == "B" {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return realTrain(ctx, sh, name)
	}

	resp, err := http.Post(ts.URL+"/api/bulk/rank", "application/json",
		strings.NewReader(`{"model":"Heuristic-Age","top":5,"regions":["A","B"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string, 2)
	go func() {
		defer close(lines)
		r := bufio.NewReader(resp.Body)
		for {
			ln, err := r.ReadString('\n')
			if ln != "" {
				lines <- ln
			}
			if err != nil {
				return
			}
		}
	}()

	select {
	case ln := <-lines:
		if !strings.Contains(ln, `"region":"A"`) {
			t.Fatalf("first streamed line %q, want region A", ln)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("region A line did not stream while region B was still training")
	}
	close(release)
	select {
	case ln := <-lines:
		if !strings.Contains(ln, `"region":"B"`) || strings.Contains(ln, `"error"`) {
			t.Fatalf("second streamed line %q, want clean region B", ln)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("region B line never arrived after release")
	}
	if _, more := <-lines; more {
		t.Fatal("unexpected extra line")
	}
}

// TestBulkErrors locks the pre-stream failure modes, which must be
// plain HTTP errors (nothing has streamed yet).
func TestBulkErrors(t *testing.T) {
	_, ts := newMultiTestServer(t)
	cases := []struct {
		name, path, body string
		wantCode         int
		wantErr          string
	}{
		{"bad top", "/api/bulk/rank", `{"top":0}`, 400, "bad top 0"},
		{"unknown region", "/api/bulk/rank", `{"regions":["Z"]}`, 400, `unknown region \"Z\"`},
		{"unknown model", "/api/bulk/rank", `{"model":"nope"}`, 400, `unknown model \"nope\"`},
		{"malformed body", "/api/bulk/rank", `{bad`, 400, "bad request body"},
		{"typed field mismatch", "/api/bulk/rank", `{"top":"5"}`, 400, "bad request body"},
		{"unknown pipe", "/api/bulk/rank", `{"pipe_ids":["nope"]}`, 404, `unknown pipe \"nope\"`},
		{"plan rejects pipe_ids", "/api/bulk/plan", `{"pipe_ids":["x"],"budget_km":1}`, 400, "pipe_ids are not supported"},
		{"plan without budget", "/api/bulk/plan", `{}`, 400, ""},
		{"plan zero failure cost", "/api/bulk/plan", `{"budget_km":1,"failure_cost":0}`, 400, ""},
	}
	for _, tc := range cases {
		code, raw, _ := postBulk(t, ts.URL+tc.path, tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.wantCode, raw)
			continue
		}
		if tc.wantErr != "" && !strings.Contains(string(raw), tc.wantErr) {
			t.Errorf("%s: body %s missing %q", tc.name, raw, tc.wantErr)
		}
	}
}

// TestBulkTrainFailureBecomesErrorLine: once streaming has begun a
// failed segment cannot change the status, so it must arrive as a
// {"error": ...} line while healthy segments still stream.
func TestBulkTrainFailureBecomesErrorLine(t *testing.T) {
	s, ts := newMultiTestServer(t)
	realTrain := s.train
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		if sh.region == "B" {
			return nil, errors.New("shard B trainer exploded")
		}
		return realTrain(ctx, sh, name)
	}
	errsBefore := s.metrics.bulkSegErrs.Value()
	code, raw, _ := postBulk(t, ts.URL+"/api/bulk/rank", `{"model":"Heuristic-Age","top":5}`)
	if code != 200 {
		t.Fatalf("status %d, want 200 with a per-segment error line", code)
	}
	lines := bulkLines(t, raw)
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %s", len(lines), raw)
	}
	if lines[0].Error != "" || len(lines[0].Ranking) == 0 {
		t.Fatalf("healthy region A line %+v", lines[0])
	}
	if !strings.Contains(lines[1].Error, "shard B trainer exploded") {
		t.Fatalf("region B line %+v, want the train error", lines[1])
	}
	if got := s.metrics.bulkSegErrs.Value() - errsBefore; got < 1 {
		t.Fatalf("bulk segment error counter delta %d, want >= 1", got)
	}
}

// TestBulkRankCacheHitZeroAlloc gates the all-cached bulk path: phase 1
// resolves every segment inline and the writer splices cached bodies,
// so a steady-state bulk request must not allocate.
func TestBulkRankCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	s, _ := newTestServer(t)
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		t.Fatal(err)
	}
	rb := &replayBody{r: bytes.NewReader([]byte(`{"model":"Heuristic-Age","top":25}`))}
	req, err := http.NewRequest("POST", "/api/bulk/rank", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body = rb
	w := &nopWriter{h: make(http.Header)}
	s.handleBulkRank(w, req) // warm: fills the ranking cache entry
	rb.rewind()
	s.handleBulkRank(w, req) // second pass settles pool objects
	allocs := testing.AllocsPerRun(500, func() {
		rb.rewind()
		s.handleBulkRank(w, req)
	})
	if allocs != 0 {
		t.Fatalf("cached bulk rank allocated %.1f times per request, want 0", allocs)
	}
}

// TestBulkPlanCacheHitZeroAlloc is the plan twin of the bulk-rank gate:
// once the plan entry is cached, a steady-state bulk plan request
// resolves through snapshotEntry's hit path and must not allocate.
func TestBulkPlanCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	s, _ := newTestServer(t)
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		t.Fatal(err)
	}
	rb := &replayBody{r: bytes.NewReader([]byte(`{"model":"Heuristic-Age","budget_km":10,"max_pipes":25}`))}
	req, err := http.NewRequest("POST", "/api/bulk/plan", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body = rb
	w := &nopWriter{h: make(http.Header)}
	s.handleBulkPlan(w, req) // warm: fills the plan cache entry
	rb.rewind()
	s.handleBulkPlan(w, req) // second pass settles pool objects
	allocs := testing.AllocsPerRun(500, func() {
		rb.rewind()
		s.handleBulkPlan(w, req)
	})
	if allocs != 0 {
		t.Fatalf("cached bulk plan allocated %.1f times per request, want 0", allocs)
	}
}

// TestPipeLookupsMatchEntryScan is the differential test for the
// registry-row rank lookups: for every pipe in the region, the scores of
// GET /api/pipes/{id} and the bulk per-pipe lines must equal a
// brute-force scan of each published snapshot's entries. The region
// holds a pipe laid after the test year, and a live renewal moves
// another past it; both must be unranked under the snapshots that
// exclude them.
func TestPipeLookupsMatchEntryScan(t *testing.T) {
	d, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the last observed year out of the split so a pipe can be laid
	// after the test year and still be valid data.
	to := d.ObservedTo
	split := pipefail.Split{TrainFrom: d.ObservedFrom, TrainTo: to - 2, TestYear: to - 1}
	var late, renewed string
	for row, id := range d.Registry.ID {
		if d.FailureCount(row, d.ObservedFrom, to) > 0 || int(d.Registry.LaidYear[row]) >= split.TestYear {
			continue
		}
		if late == "" {
			late = id
			d.Registry.LaidYear[row] = int32(to)
		} else {
			renewed = id
			break
		}
	}
	s, err := New(d, log.New(io.Discard, "", 0), pipefail.WithESGenerations(4), pipefail.WithSplit(split))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEventLog(EventLogConfig{Dir: t.TempDir(), Sync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.BeginShutdown)

	models := []string{"Heuristic-Age", "Logistic"}
	for _, name := range models {
		if _, err := s.get(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	renewal := map[string]any{"id": "move-past", "type": "renewal", "pipe_id": renewed, "year": to}
	if code := postJSON(t, ts.URL+"/api/events", renewal, nil); code != http.StatusOK {
		t.Fatalf("renewal status %d", code)
	}
	// Only Heuristic-Age retrains past the renewal; Logistic keeps the
	// snapshot that still ranks the renewed pipe.
	rebuildAll(s, []rebuildTarget{{sh: s.def, name: "Heuristic-Age"}})

	scan := func(tm *modelSnapshot, id string) *rankedPipe {
		for i := range tm.entries {
			if tm.entries[i].PipeID == id {
				return &tm.entries[i]
			}
		}
		return nil
	}
	snaps := map[string]*modelSnapshot{}
	for _, name := range models {
		snaps[name] = s.def.snapshot(name)
	}
	if scan(snaps["Heuristic-Age"], renewed) != nil || scan(snaps["Logistic"], renewed) == nil {
		t.Fatal("the renewal did not move the pipe out of the rebuilt snapshot only")
	}
	for _, name := range models {
		if scan(snaps[name], late) != nil {
			t.Fatalf("%s ranks the pipe laid after the test year", name)
		}
	}

	ids := d.Registry.ID
	for _, id := range ids {
		var got struct {
			Scores map[string]float64 `json:"scores"`
		}
		if code := getJSON(t, ts.URL+"/api/pipes/"+id, &got); code != http.StatusOK {
			t.Fatalf("pipe %s status %d", id, code)
		}
		want := map[string]float64{}
		for name, tm := range snaps {
			if e := scan(tm, id); e != nil {
				want[name] = e.Score
			}
		}
		if len(got.Scores) != len(want) {
			t.Fatalf("pipe %s scores %v, scan %v", id, got.Scores, want)
		}
		for name, v := range want {
			if g, ok := got.Scores[name]; !ok || g != v {
				t.Fatalf("pipe %s scores %v, scan %v", id, got.Scores, want)
			}
		}
	}

	body, err := json.Marshal(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range models {
		tm := snaps[name]
		code, raw, _ := postBulk(t, ts.URL+"/api/bulk/rank", `{"model":"`+name+`","pipe_ids":`+string(body)+`}`)
		if code != http.StatusOK {
			t.Fatalf("%s bulk status %d: %s", name, code, raw)
		}
		lines := bulkLines(t, raw)
		if len(lines) != len(ids) {
			t.Fatalf("%s: %d bulk lines for %d pipes", name, len(lines), len(ids))
		}
		for i, l := range lines {
			want := bulkLine{PipeID: ids[i], Region: "A", Model: name}
			if e := scan(tm, ids[i]); e == nil {
				want.Error = "pipe has no rank under this model"
			} else {
				want.Rank, want.Score = e.Rank, e.Score
				if tm.calibrator != nil {
					want.FailProb = e.FailProb
				}
			}
			if l.PipeID != want.PipeID || l.Region != want.Region || l.Model != want.Model ||
				l.Error != want.Error || l.Rank != want.Rank || l.Score != want.Score || l.FailProb != want.FailProb {
				t.Fatalf("%s line %d: %+v, scan %+v", name, i, l, want)
			}
		}
	}
}
