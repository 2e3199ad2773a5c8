package serve

// Multi-region registry tests: construction invariants (duplicate
// region names fail fast), ?region= routing, the /api/regions admin
// view, and the sheddable-route list that keeps every bulk and
// shard-admin endpoint behind the shed/timeout/drain middleware.

import (
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// newMultiTestServer builds a two-shard server (regions "A" and "B")
// over small synthetic networks.
func newMultiTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	netA, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := pipefail.GenerateRegion("B", 6, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewMulti([]*pipefail.Network{netA, netB}, log.New(io.Discard, "", 0), pipefail.WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestNewMultiRejectsDuplicateRegions(t *testing.T) {
	netA1, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	netA2, err := pipefail.GenerateRegion("A", 6, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewMulti([]*pipefail.Network{netA1, netA2}, log.New(io.Discard, "", 0))
	if err == nil {
		t.Fatal("duplicate regions accepted")
	}
	if !strings.Contains(err.Error(), `duplicate region "A"`) {
		t.Fatalf("error %q does not name the duplicate region", err)
	}
	if !strings.Contains(err.Error(), "inputs 1 and 2") {
		t.Fatalf("error %q does not name the colliding inputs", err)
	}

	// Distinct names whose metric tokens collide would share a WAL dir,
	// a state dir and a metric series; they are refused too.
	netN1, err := pipefail.GenerateRegion("A", 7, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	netN2, err := pipefail.GenerateRegion("A", 8, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	netN1.Region, netN2.Region = "North", "north"
	_, err = NewMulti([]*pipefail.Network{netA1, netN1, netN2}, log.New(io.Discard, "", 0))
	if err == nil {
		t.Fatal("regions with colliding metric tokens accepted")
	}
	for _, want := range []string{`"North"`, `"north"`, "inputs 2 and 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

func TestRegionQueryRouting(t *testing.T) {
	s, ts := newMultiTestServer(t)

	// Without ?region= the default (first) shard answers — the
	// pre-shard contract.
	var def map[string]any
	if code := getJSON(t, ts.URL+"/api/network", &def); code != 200 {
		t.Fatalf("network status %d", code)
	}
	if def["region"] != "A" {
		t.Fatalf("default shard region %v, want A", def["region"])
	}
	regions, ok := def["regions"].([]any)
	if !ok || len(regions) != 2 {
		t.Fatalf("multi-shard /api/network regions %v", def["regions"])
	}

	var other map[string]any
	if code := getJSON(t, ts.URL+"/api/network?region=B", &other); code != 200 {
		t.Fatalf("network?region=B status %d", code)
	}
	if other["region"] != "B" {
		t.Fatalf("region=B answered by %v", other["region"])
	}

	var errResp map[string]string
	if code := getJSON(t, ts.URL+"/api/network?region=Z", &errResp); code != 400 {
		t.Fatalf("unknown region status %d, want 400", code)
	}
	if !strings.Contains(errResp["error"], `unknown region "Z"`) {
		t.Fatalf("unknown region error %q", errResp["error"])
	}

	// Training is shard-scoped: training on B must not publish on A.
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train?region=B", nil, nil); code != 200 {
		t.Fatalf("train on B status %d", code)
	}
	if n := s.byRegion["B"].published(); n != 1 {
		t.Fatalf("shard B has %d trained models, want 1", n)
	}
	if n := s.def.published(); n != 0 {
		t.Fatalf("shard A has %d trained models, want 0", n)
	}
}

func TestRegionsEndpoint(t *testing.T) {
	s, ts := newMultiTestServer(t)
	if _, err := s.getShard(context.Background(), s.byRegion["B"], "Heuristic-Age"); err != nil {
		t.Fatal(err)
	}
	var rows []regionStatus
	if code := getJSON(t, ts.URL+"/api/regions", &rows); code != 200 {
		t.Fatalf("regions status %d", code)
	}
	if len(rows) != 2 || rows[0].Region != "A" || rows[1].Region != "B" {
		t.Fatalf("regions rows %+v, want A then B in fan-out order", rows)
	}
	if rows[0].Pipes != s.def.data.NumPipes() || rows[1].Pipes != s.byRegion["B"].data.NumPipes() {
		t.Fatalf("pipe counts %d/%d", rows[0].Pipes, rows[1].Pipes)
	}
	if rows[0].ModelsTrained != 0 || rows[1].ModelsTrained != 1 {
		t.Fatalf("models_trained %d/%d, want 0/1", rows[0].ModelsTrained, rows[1].ModelsTrained)
	}
	for i := range rows {
		if rows[i].NetworkKM <= 0 || rows[i].Failures <= 0 {
			t.Fatalf("row %d has empty network: %+v", i, rows[i])
		}
	}
}

// TestSheddableRouteList locks the invariant that every route except
// the liveness/readiness probes runs behind the shed/timeout/drain
// middleware — including the bulk streaming and shard-admin endpoints
// added with the multi-region registry.
func TestSheddableRouteList(t *testing.T) {
	s, _ := newTestServer(t)
	want := map[string]bool{
		"GET /healthz":                   false,
		"GET /readyz":                    false,
		"GET /api/network":               true,
		"GET /api/regions":               true,
		"GET /api/models":                true,
		"POST /api/models/{name}/train":  true,
		"GET /api/models/{name}/ranking": true,
		"GET /api/pipes/{id}":            true,
		"GET /api/cohorts":               true,
		"GET /api/hotspots":              true,
		"POST /api/plan":                 true,
		"POST /api/bulk/rank":            true,
		"POST /api/bulk/plan":            true,
		"POST /api/events":               true,
		"GET /metrics":                   true,
	}
	if len(s.routes) != len(want) {
		t.Fatalf("route count %d, want %d — new routes must be classified here", len(s.routes), len(want))
	}
	for _, rt := range s.routes {
		sheddable, known := want[rt.pattern]
		if !known {
			t.Errorf("unexpected route %q — classify it as sheddable or probe", rt.pattern)
			continue
		}
		if rt.sheddable != sheddable {
			t.Errorf("route %q sheddable=%v, want %v", rt.pattern, rt.sheddable, sheddable)
		}
	}
}

// TestBulkRoutesDrainWithProbeExemption checks the behavior behind the
// list: once draining, bulk requests shed with 503 + Retry-After while
// the probes still answer.
func TestBulkRoutesDrainWithProbeExemption(t *testing.T) {
	s, ts := newMultiTestServer(t)
	s.BeginShutdown()

	resp, err := http.Post(ts.URL+"/api/bulk/rank", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining bulk status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining bulk response missing Retry-After")
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz during drain %d, want 200", code)
	}
}

// TestBulkCountsAgainstInflightCap parks a bulk request inside training
// and verifies it occupies an inflight slot (so -max-inflight covers
// the bulk endpoints), then that the probes bypass the cap.
func TestBulkCountsAgainstInflightCap(t *testing.T) {
	s, ts := newMultiTestServer(t)
	release := make(chan struct{})
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, errors.New("parked trainer")
	}
	s.SetMaxInflight(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/api/bulk/rank", "application/json", strings.NewReader(`{}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.inflightReqs.Load() >= 1 })

	resp, err := http.Post(ts.URL+"/api/bulk/rank", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap bulk status %d, want 503", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz over cap %d, want 200", code)
	}
	close(release) // unpark the trainers so the first request finishes
	<-done
}

// TestConcurrentLearnedFitsOneShard trains DirectAUC-ES and RankSVM at
// the same time on one shard's pipeline: each fit builds its own training
// set from the shared fitted builder, so (under -race) nothing is written
// concurrently and the published ETags equal those of one-at-a-time
// training on a fresh server.
func TestConcurrentLearnedFitsOneShard(t *testing.T) {
	models := []string{"DirectAUC-ES", "RankSVM"}
	seq, _ := newTestServer(t)
	want := make([]string, len(models))
	for i, name := range models {
		tm, err := seq.get(context.Background(), name)
		if err != nil {
			t.Fatalf("sequential %s: %v", name, err)
		}
		want[i] = tm.etag
	}

	conc, _ := newTestServer(t)
	got := make([]string, len(models))
	errs := make([]error, len(models))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, name := range models {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			<-start
			tm, err := conc.get(context.Background(), name)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = tm.etag
		}(i, name)
	}
	close(start)
	wg.Wait()
	for i, name := range models {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", name, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("%s: concurrent ETag %s, sequential %s", name, got[i], want[i])
		}
	}
}
