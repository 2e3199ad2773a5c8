package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestOutcomeAccounting(t *testing.T) {
	const msec = time.Millisecond
	cases := []struct {
		name                 string
		o                    outcome
		latency, lag, queued time.Duration
	}{
		// On time, connection idle: latency is the service time.
		{"idle", outcome{at: 10 * msec, free: 5 * msec, sent: 10 * msec, done: 12 * msec}, 2 * msec, 0, 0},
		// The generator woke 1ms late with a free connection: that is its
		// own lateness, kept out of the server's latency.
		{"late timer", outcome{at: 10 * msec, free: 5 * msec, sent: 11 * msec, done: 13 * msec}, 2 * msec, msec, 0},
		// Both connections were busy until 30ms: the 20ms wait is the
		// server's doing and counts in full (coordinated omission).
		{"queued", outcome{at: 10 * msec, free: 30 * msec, sent: 30 * msec, done: 32 * msec}, 22 * msec, 0, 20 * msec},
		// Queued, then a late send after the connection freed up.
		{"queued and late", outcome{at: 10 * msec, free: 30 * msec, sent: 31 * msec, done: 33 * msec}, 22 * msec, msec, 20 * msec},
	}
	for _, c := range cases {
		if got := c.o.latency(); got != c.latency {
			t.Errorf("%s: latency %v, want %v", c.name, got, c.latency)
		}
		if got := c.o.genLag(); got != c.lag {
			t.Errorf("%s: genLag %v, want %v", c.name, got, c.lag)
		}
		if got := c.o.queued(); got != c.queued {
			t.Errorf("%s: queued %v, want %v", c.name, got, c.queued)
		}
	}
}

// A server that stalls the first request holds up every request due
// behind it on the single connection; their latency, counted from the
// intended send time, must include that wait.
func TestOpenLoopCountsQueueingBehindAStall(t *testing.T) {
	const stall = 80 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	ops := []op{
		{at: 0, route: "slow", method: http.MethodGet, path: "/slow"},
		{at: 10 * time.Millisecond, route: "fast", method: http.MethodGet, path: "/fast"},
		{at: 20 * time.Millisecond, route: "fast", method: http.MethodGet, path: "/fast"},
	}
	conn := newConn()
	defer conn.CloseIdleConnections()
	outs := runOpenLoop(context.Background(), []*http.Client{conn}, srv.URL, ops, time.Now(), 0)
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("op %d: %v", i, o.err)
		}
	}
	// The second op was due at 10ms but could only leave after the stall.
	if q := outs[1].queued(); q < stall-15*time.Millisecond {
		t.Errorf("second op queued %v, want about %v", q, stall-10*time.Millisecond)
	}
	if l := outs[2].latency(); l < stall-25*time.Millisecond {
		t.Errorf("third op latency %v hides the stall", l)
	}
	if s := outs[2].service(); s > stall/2 {
		t.Errorf("third op's own service time %v should be short", s)
	}
}

func TestGrowingBacklog(t *testing.T) {
	mk := func(queuedMS ...int) []outcome {
		var outs []outcome
		for i, qm := range queuedMS {
			at, q := time.Duration(i)*time.Millisecond, time.Duration(qm)*time.Millisecond
			outs = append(outs, outcome{at: at, free: at + q, sent: at + q, done: at + q + time.Millisecond})
		}
		return outs
	}
	steady := mk(0, 1, 0, 1, 0, 1, 0, 1)
	if growingBacklog(steady, 2*time.Millisecond) {
		t.Error("steady queue reported as growing")
	}
	growing := mk(0, 1, 5, 10, 20, 40, 60, 80)
	if !growingBacklog(growing, 2*time.Millisecond) {
		t.Error("growing queue not reported")
	}
}
