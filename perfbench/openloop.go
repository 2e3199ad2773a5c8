package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled request of an open loop.
type op struct {
	at     time.Duration // intended send time, from the loop's start
	route  string
	method string
	path   string
	body   []byte
	ctype  string
	etag   string // sent as If-None-Match when set
	check  func(status int, hdr http.Header, body []byte) error
}

// outcome is what happened to one op. Times are offsets from the loop's
// start: free is when a connection became available for it, sent when
// the request went out, done when the response body was read.
type outcome struct {
	id             int
	route          string
	at, free, sent time.Duration
	done           time.Duration
	err            error
}

// latency is measured from the intended send time, so time a request
// spent queued behind a slow server counts against the server
// (coordinated omission). The generator's own lateness (genLag) is taken
// out: timer wake-ups on a busy host are the generator's, not the
// server's, and are reported on their own.
func (o outcome) latency() time.Duration { return o.done - o.at - o.genLag() }

// service is the time on the wire: sent until the body was read.
func (o outcome) service() time.Duration { return o.done - o.sent }

// genLag is how late the generator itself sent the request: the delay
// past the later of its due time and the moment a connection was free
// for it. Waiting for a busy connection is the server's doing and is not
// lag.
func (o outcome) genLag() time.Duration {
	ready := o.at
	if o.free > ready {
		ready = o.free
	}
	if o.sent < ready {
		return 0
	}
	return o.sent - ready
}

// queued is how long a due request waited for a busy connection.
func (o outcome) queued() time.Duration {
	if o.free <= o.at {
		return 0
	}
	return o.free - o.at
}

func (o outcome) ok() bool { return o.err == nil }

// newConn returns a client pinned to at most one connection, so a load
// generator with k clients uses at most k connections.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 20 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func closeConns(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// opHeader carries the op ID so the traced server can join a request's
// handler span to the client's timing of it.
const opHeader = "X-Bench-Op"

// runOpenLoop sends ops on schedule over the given connections, each
// connection taking the next due op as soon as it is free, and returns
// one outcome per op in schedule order. base is the server URL; idBase
// offsets op IDs so concurrent loops never share one.
func runOpenLoop(ctx context.Context, conns []*http.Client, base string, ops []op, start time.Time, idBase int) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				res := outcome{id: idBase + i, route: o.route, at: o.at, free: time.Since(start)}
				if wait := o.at - res.free; wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
					case <-t.C:
					}
				}
				if ctx.Err() != nil {
					res.sent, res.done, res.err = res.free, res.free, ctx.Err()
					out[i] = res
					continue
				}
				res.sent = time.Since(start)
				res.err = do(ctx, c, base, o, res.id)
				res.done = time.Since(start)
				out[i] = res
			}
		}(c)
	}
	wg.Wait()
	return out
}

// do sends one op and applies its check; a wrong status or a failed
// check is an error.
func do(ctx context.Context, c *http.Client, base string, o *op, id int) error {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, body)
	if err != nil {
		return err
	}
	req.Header.Set(opHeader, strconv.Itoa(id))
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	if o.etag != "" {
		req.Header.Set("If-None-Match", o.etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if o.check != nil {
		return o.check(resp.StatusCode, resp.Header, data)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", o.method, o.path, resp.StatusCode, data)
	}
	return nil
}

// poissonTimes draws arrival offsets at rate per second over [from, to)
// from rng: exponential gaps, so arrivals are independent the way users
// are.
func poissonTimes(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	var out []time.Duration
	t := float64(from)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if time.Duration(t) >= to {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// growingBacklog reports whether the wait for a connection grew across a
// step: the mean queueing delay of its last quarter exceeds that of its
// first quarter by more than slack. A server that keeps up drains its
// queue between bursts, so the two stay close.
func growingBacklog(outs []outcome, slack time.Duration) bool {
	n := len(outs) / 4
	if n == 0 {
		return false
	}
	var first, last time.Duration
	for i := 0; i < n; i++ {
		first += outs[i].queued()
		last += outs[len(outs)-1-i].queued()
	}
	return (last-first)/time.Duration(n) > slack
}
