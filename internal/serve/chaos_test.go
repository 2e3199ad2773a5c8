package serve

// Chaos suite: the serve stack under simultaneous network faults
// (internal/faulty listener cuts + delays) and training faults
// (failures, panics and hangs injected through the trainFn seam), with
// shedding, request deadlines and a mid-storm drain. Run under -race by
// `make chaos` (folded into `make verify`). Client-side errors are
// expected — the invariants are strictly server-side: no crash, no
// deadlock, no torn snapshot state, probes keep answering, and a clean
// drain at the end.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/faulty"
)

// chaosTrainer wraps the real trainer, injecting a deterministic fault
// by call index: every 4th call fails, every 5th panics, every 7th
// hangs until cancelled. (Indices sharing multiples fault by the first
// matching rule.)
type chaosTrainer struct {
	real  func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error)
	calls atomic.Int64
}

func (c *chaosTrainer) train(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
	i := c.calls.Add(1)
	switch {
	case i%7 == 0:
		<-ctx.Done() // hang: only cancellation frees this trainer
		return nil, fmt.Errorf("chaos hang: %w", ctx.Err())
	case i%5 == 0:
		panic(fmt.Sprintf("chaos panic on call %d", i))
	case i%4 == 0:
		return nil, errors.New("chaos failure")
	}
	return c.real(ctx, sh, name)
}

func TestChaosServerSurvives(t *testing.T) {
	net0, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net0, log.New(io.Discard, "", 0), pipefail.WithESGenerations(4))
	if err != nil {
		t.Fatal(err)
	}
	ct := &chaosTrainer{real: s.train}
	s.trainFn = ct.train
	s.SetMaxInflight(6)
	s.SetRequestTimeout(300 * time.Millisecond)

	ts := httptest.NewUnstartedServer(s.Handler())
	fl := faulty.Wrap(ts.Listener, func(i int) faulty.Fault {
		switch {
		case i%5 == 3:
			return faulty.Fault{CutAfter: 256} // torn response mid-body
		case i%5 == 4:
			return faulty.Fault{Delay: 3 * time.Millisecond} // slow client
		}
		return faulty.Fault{}
	})
	ts.Listener = fl
	ts.Start()
	defer ts.Close()

	// Cheap models only: the request deadline must never fire on an
	// honest training run, only on injected hangs.
	models := []string{"Heuristic-Age", "Heuristic-Length", "Logistic", "Cox"}
	paths := []string{"/api/network", "/api/cohorts", "/api/hotspots?min=1", "/metrics"}

	// Per-request client without keep-alive so connection faults land on
	// fresh connections instead of poisoning a shared pool.
	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   10 * time.Second,
	}

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	var clientErrs, non2xx atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var resp *http.Response
				var err error
				switch i % 4 {
				case 0:
					resp, err = client.Post(ts.URL+"/api/models/"+models[(w+i)%len(models)]+"/train", "application/json", nil)
				case 1:
					resp, err = client.Get(ts.URL + "/api/models/" + models[(w+i)%len(models)] + "/ranking?top=10")
				case 2:
					resp, err = client.Post(ts.URL+"/api/plan", "application/json",
						strings.NewReader(`{"model":"`+models[(w+i)%len(models)]+`","budget_km":3,"max_pipes":20}`))
				default:
					resp, err = client.Get(ts.URL + paths[(w+i)%len(paths)])
				}
				if err != nil {
					clientErrs.Add(1) // cut/reset connections are expected
					continue
				}
				if _, cerr := io.Copy(io.Discard, resp.Body); cerr != nil {
					clientErrs.Add(1) // torn body after a mid-response cut
				}
				resp.Body.Close()
				if resp.StatusCode >= 300 {
					non2xx.Add(1) // sheds, chaos failures: also expected
				}
			}
		}(w)
	}
	wg.Wait()

	st := fl.Stats()
	if st.Faulted == 0 {
		t.Fatal("chaos run injected no connection faults; the plan is dead")
	}
	if ct.calls.Load() == 0 {
		t.Fatal("chaos run never reached the trainer")
	}
	t.Logf("chaos: %d conns (%d faulted, %d cut), %d trainer calls, %d client errors, %d non-2xx",
		st.Accepted, st.Faulted, st.Cut, ct.calls.Load(), clientErrs.Load(), non2xx.Load())

	// Invariant: the server survived — probes answer, panics were
	// contained, and a real model is still servable end to end.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatal("healthz dead after the storm")
	}
	s.trainFn = s.train // calm the trainer
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, nil); code != 200 {
		t.Fatal("cannot train cleanly after the storm")
	}

	// Every published snapshot is fully formed (a torn publish would
	// leave nil fields that panic the read path).
	for name, tm := range publishedModels(s.def) {
		if tm == nil || tm.ranking == nil {
			t.Fatalf("torn snapshot published for %s", name)
		}
	}

	// And the server still drains cleanly: readyz flips, hung training
	// (if any is left) dies with the lifecycle context.
	s.BeginShutdown()
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Fatal("readyz not draining after BeginShutdown")
	}
	waitFor(t, func() bool { return inflightFits(s.def) == 0 })
}

// TestChaosSingleflightUnderCancellation hammers one model with waves
// of short-deadline requests against a hanging trainer, then asserts
// in-flight fits converge to none and a clean train still works —
// the refcounted abandon path never leaks a job or a goroutine.
func TestChaosSingleflightUnderCancellation(t *testing.T) {
	s, _ := newTestServer(t)
	var hangs atomic.Int64
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		hangs.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}

	const waves, waiters = 5, 6
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				if _, err := s.get(ctx, "Heuristic-Age"); err == nil {
					t.Error("hung training returned a snapshot")
				}
			}()
		}
		wg.Wait()
	}

	waitFor(t, func() bool { return inflightFits(s.def) == 0 })
	if hangs.Load() == 0 {
		t.Fatal("hanging trainer never ran")
	}

	s.trainFn = s.train
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		t.Fatalf("clean train after cancellation storm: %v", err)
	}
}

// TestChaosBulkRankDuringRebuilds hammers the streamed bulk endpoint
// while the rebuild scheduler force-rotates every published snapshot
// under it. Deterministic training means a rebuild must be invisible on
// the wire: every streamed response — read mid-rotation or not — must
// be byte-identical to the pre-chaos expected stream, and every ETag
// constant. Any torn snapshot publish, cache/snapshot mismatch or
// scratch-recycling race shows up as a diverging byte (or, under -race,
// a report).
func TestChaosBulkRankDuringRebuilds(t *testing.T) {
	s, ts := newMultiTestServer(t)
	ctx := context.Background()
	for _, sh := range s.shards {
		if _, err := s.getShard(ctx, sh, "Heuristic-Age"); err != nil {
			t.Fatal(err)
		}
	}

	// The expected stream, assembled from the single-region responses
	// the bulk lines must splice verbatim.
	var expect strings.Builder
	for _, region := range s.Regions() {
		resp, err := http.Get(ts.URL + "/api/models/Heuristic-Age/ranking?top=10&region=" + region)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("single ranking %s: %d %v", region, resp.StatusCode, err)
		}
		fmt.Fprintf(&expect, `{"region":%q,"model":"Heuristic-Age","etag":%s,"ranking":%s}`+"\n",
			region, resp.Header.Get("ETag"), strings.TrimSuffix(string(body), "\n"))
	}
	want := expect.String()

	// Rebuild storm: forced passes retrain and republish every snapshot
	// (plus the default model) as fast as they complete.
	stop := make(chan struct{})
	var rebuilds sync.WaitGroup
	rebuilds.Add(1)
	go func() {
		defer rebuilds.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rebuildAll(s, forcedTargets(s))
			}
		}
	}()

	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(ts.URL+"/api/bulk/rank", "application/json",
					strings.NewReader(`{"model":"Heuristic-Age","top":10}`))
				if err != nil {
					t.Errorf("bulk request: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("bulk response: %d %v", resp.StatusCode, err)
					return
				}
				if string(body) != want {
					t.Errorf("bulk stream diverged during rebuilds\ngot:  %s\nwant: %s", body, want)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	rebuilds.Wait()

	// The storm must not have perturbed what a fresh client sees.
	resp, err := http.Post(ts.URL+"/api/bulk/rank", "application/json",
		strings.NewReader(`{"model":"Heuristic-Age","top":10}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != want {
		t.Fatalf("post-storm stream diverged (%v)\ngot:  %s\nwant: %s", err, body, want)
	}
}
