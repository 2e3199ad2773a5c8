package main

import (
	"testing"
	"time"
)

func TestNonWALMatchesSpansByOp(t *testing.T) {
	us := time.Microsecond
	single := []event{{ID: "e"}}
	plan := ingestPlan{events: [][]event{single, make([]event, 100), single, single, single}}
	spans := []span{
		{ID: 1, Op: 0, Name: "serve.handler.events", End: 500 * us},
		{ID: 2, Op: 1, Name: "serve.handler.events", End: 9000 * us}, // a batch: left out
		{ID: 3, Op: 2, Name: "serve.handler.events", End: 700 * us},
		{ID: 4, Op: 3, Name: "serve.handler.events", End: 100 * us}, // no replayed request: left out
		{ID: 5, Op: 4, Name: "serve.handler.events", End: 450 * us},
		{ID: 6, Op: 0, Name: "wal.request", End: 400 * us},
		{ID: 7, Op: 1, Name: "wal.request", End: 1000 * us},
		{ID: 8, Op: 2, Name: "wal.request", End: 300 * us},
		{ID: 9, Op: 4, Name: "wal.request", End: 200 * us},
		// Another route's span with a matching op is not an events request.
		{ID: 10, Op: 2, Name: "serve.handler.ranking", End: 50 * us},
	}
	// Per op: 500-400, 700-300 and 450-200.
	if got, ok := nonWALUS(spans, plan); !ok || got != 250 {
		t.Errorf("nonWALUS = %v, %v; want 250, true", got, ok)
	}
	if _, ok := nonWALUS(spans[:5], plan); ok {
		t.Error("nonWALUS without replayed requests reported a value")
	}
}

func TestETagChangesCountsPublishesSeen(t *testing.T) {
	cases := []struct {
		seq  []string
		want int
	}{
		{nil, 0},
		{[]string{"a", "a", "a"}, 0},
		{[]string{"a", "b", "b", "c"}, 2},
		// A response without an ETag (an error, say) neither starts nor
		// breaks a run of equal tags.
		{[]string{"", "a", "", "a", "b", ""}, 1},
		// Returning to an earlier tag is a change too: it was published
		// again.
		{[]string{"a", "b", "a"}, 2},
	}
	for _, c := range cases {
		if got := etagChanges(c.seq); got != c.want {
			t.Errorf("etagChanges(%q) = %d, want %d", c.seq, got, c.want)
		}
	}
}

func TestUsefulRatio(t *testing.T) {
	tags := map[string][]string{
		"DirectAUC-ES":  {"a", "b", "c"}, // 2 changes
		"Heuristic-Age": {"x", "x", "y"}, // 1 change
	}
	if got := usefulRatio(tags, 6); got != 0.5 {
		t.Errorf("usefulRatio = %v, want 0.5", got)
	}
	if got := usefulRatio(tags, 0); got != 0 {
		t.Errorf("usefulRatio with no rebuilds = %v, want 0", got)
	}
}

func TestFreshnessMarksInAckOrder(t *testing.T) {
	var f freshness
	f.add(&renewalAck{pipe: "p1", acked: 100})
	f.add(&renewalAck{pipe: "p2", acked: 150})
	if a := f.next(); a.pipe != "p1" {
		t.Fatalf("next = %s", a.pipe)
	}
	f.markFresh(400)
	if a := f.next(); a.pipe != "p2" {
		t.Fatalf("next after p1 = %s", a.pipe)
	}
	f.markFresh(400)
	if f.next() != nil {
		t.Fatal("renewals left pending")
	}
	if f.acks[0].fresh != 300 || f.acks[1].fresh != 250 || !f.acks[1].seen {
		t.Fatalf("fresh times %+v %+v", *f.acks[0], *f.acks[1])
	}
}
