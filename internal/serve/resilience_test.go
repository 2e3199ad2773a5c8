package serve

// Tests for the resilience middleware: panic containment (handler and
// training goroutine), load shedding at the in-flight cap, drain
// refusal + the readiness probe, per-request deadlines, and
// last-waiter-out training cancellation. `make verify` runs these under
// -race.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func counterVal(name string) int64 { return obs.Default().Counter(name).Value() }

// TestHandlerPanicRecovered wraps a deliberately panicking handler in
// the full middleware chain and asserts the request dies as a clean 500
// while the server (and the counter) keep working.
func TestHandlerPanicRecovered(t *testing.T) {
	s, _ := newTestServer(t)
	before := counterVal("serve.panics.recovered")

	h := s.middleware("boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/boom", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("panic 500 Content-Type %q", ct)
	}
	if got := counterVal("serve.panics.recovered"); got != before+1 {
		t.Fatalf("serve.panics.recovered = %d, want %d", got, before+1)
	}
	// A panic after bytes have flushed cannot 500; it must still recover.
	h2 := s.middleware("boom2", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("mid-body")
	})
	rec2 := httptest.NewRecorder()
	h2(rec2, httptest.NewRequest("GET", "/boom2", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("mid-body panic rewrote status to %d", rec2.Code)
	}
	if got := counterVal("serve.panics.recovered"); got != before+2 {
		t.Fatal("mid-body panic not counted")
	}
}

// TestTrainingPanicContained injects a panic through the trainFn seam:
// the waiter gets a 503 naming the panic, the process survives, and the
// next request retrains successfully.
func TestTrainingPanicContained(t *testing.T) {
	s, ts := newTestServer(t)
	beforePanics := counterVal("serve.train.panics")
	beforeFailures := counterVal("serve.train.failures")

	realTrain := s.trainFn
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		panic("injected trainer panic")
	}
	var e map[string]any
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, &e); code != 503 {
		t.Fatalf("panicked train status %d, want 503", code)
	}
	if !strings.Contains(e["error"].(string), "panicked") {
		t.Fatalf("error body %v does not name the panic", e)
	}
	if got := counterVal("serve.train.panics"); got != beforePanics+1 {
		t.Fatalf("serve.train.panics = %d, want %d", got, beforePanics+1)
	}
	if got := counterVal("serve.train.failures"); got != beforeFailures+1 {
		t.Fatal("a contained panic must also count as a train failure")
	}

	// Server is still alive and the panicked run was not cached.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatal("server died after a contained training panic")
	}
	s.trainFn = realTrain
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, nil); code != 200 {
		t.Fatal("retrain after contained panic failed")
	}
}

// TestLoadSheddingAtCap saturates a capacity-1 server with a training
// run parked on a channel and asserts the overflow request is shed with
// 503 + Retry-After while probes stay exempt.
func TestLoadSheddingAtCap(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetMaxInflight(1)
	before := counterVal("serve.shed.capacity")

	release := make(chan struct{})
	entered := make(chan struct{})
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		close(entered)
		<-release
		return nil, errors.New("parked trainer done")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, nil)
	}()
	<-entered // the slot is definitely occupied

	resp, err := http.Get(ts.URL + "/api/network")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := counterVal("serve.shed.capacity"); got != before+1 {
		t.Fatalf("serve.shed.capacity = %d, want %d", got, before+1)
	}
	// Probes bypass the shedder even at capacity.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatal("healthz shed at capacity")
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 200 {
		t.Fatal("readyz shed at capacity")
	}
	close(release)
	wg.Wait()

	// Cap released: normal traffic flows again.
	if code := getJSON(t, ts.URL+"/api/network", nil); code != 200 {
		t.Fatal("request failed after the cap cleared")
	}
}

// TestDrainingRefusesWork pins the shutdown-visible behavior:
// BeginShutdown flips /readyz to 503, sheds API routes with
// Retry-After, keeps /healthz answering, and cancels the lifecycle
// context that in-flight training hangs off.
func TestDrainingRefusesWork(t *testing.T) {
	s, ts := newTestServer(t)
	before := counterVal("serve.shed.draining")

	var ready map[string]any
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != 200 || ready["status"] != "ready" {
		t.Fatalf("pre-drain readyz %v (%v)", ready, code)
	}

	s.BeginShutdown()
	s.BeginShutdown() // idempotent

	if err := s.lifecycle.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("lifecycle context not cancelled: %v", err)
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != 503 || ready["status"] != "draining" {
		t.Fatalf("draining readyz %v (%v)", ready, code)
	}
	resp, err := http.Get(ts.URL + "/api/network")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining API request: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got := counterVal("serve.shed.draining"); got != before+1 {
		t.Fatalf("serve.shed.draining = %d, want %d", got, before+1)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatal("healthz must answer while draining")
	}
}

// TestRequestTimeoutAbandonsTraining sets a short request deadline over
// a trainer that only returns on cancellation: the request comes back
// 503 "abandoned", and the training run itself is cancelled because its
// only waiter left.
func TestRequestTimeoutAbandonsTraining(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetRequestTimeout(50 * time.Millisecond)

	trainerDone := make(chan error, 1)
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		<-ctx.Done() // a hung trainer that at least honors cancellation
		trainerDone <- ctx.Err()
		return nil, fmt.Errorf("trainer: %w", ctx.Err())
	}

	var e map[string]any
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, &e); code != 503 {
		t.Fatalf("timed-out train status %d, want 503", code)
	}
	if !strings.Contains(e["error"].(string), "abandoned") {
		t.Fatalf("error body %v", e)
	}
	select {
	case err := <-trainerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trainer ctx error %v, want Canceled (last waiter left)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("training run was never cancelled after its waiter left")
	}
}

// TestLastWaiterOutCancelsTraining drives get() directly with two
// waiters: one abandons (no cancellation yet — someone still waits),
// then the other abandons and the run's context must die.
func TestLastWaiterOutCancelsTraining(t *testing.T) {
	s, _ := newTestServer(t)

	trainCtx := make(chan context.Context, 1)
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		trainCtx <- ctx
		<-ctx.Done()
		return nil, ctx.Err()
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	errs := make(chan error, 2)
	go func() { _, err := s.get(ctx1, "Heuristic-Age"); errs <- err }()
	tctx := <-trainCtx
	go func() { _, err := s.get(ctx2, "Heuristic-Age"); errs <- err }()

	// Both waiters must be registered before the first abandons, or the
	// job could be cancelled while waiters == 1.
	waitFor(t, func() bool {
		s.def.mu.Lock()
		defer s.def.mu.Unlock()
		job := s.def.slot("Heuristic-Age").job
		return job != nil && job.waiters == 2
	})

	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter error %v", err)
	}
	select {
	case <-tctx.Done():
		t.Fatal("training cancelled while a waiter remained")
	case <-time.After(50 * time.Millisecond):
	}

	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second waiter error %v", err)
	}
	select {
	case <-tctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("training context survived the last waiter leaving")
	}
}

// waitFor polls cond for up to 5s; the serve package has no test
// clock, so the handful of cross-goroutine assertions above use this.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
