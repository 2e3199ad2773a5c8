// Package faulty is a deterministic fault-injection harness for
// network-facing tests. It wraps a net.Listener so that each accepted
// connection receives a Fault chosen by an index-driven Plan: added
// latency before the first read, or an abrupt connection cut after a
// byte budget of response data (a mid-response reset/truncation as the
// client sees it).
//
// The harness is deliberately clock- and randomness-free at the
// decision level: faults are assigned by accepted-connection index, so
// a chaos test's fault pattern is reproducible run to run even though
// goroutine interleaving is not. The serve chaos suite (run under
// -race by `make chaos`) layers this under httptest servers together
// with the training seam's failure/panic/hang injection.
package faulty

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes what happens to one connection. The zero Fault is a
// passthrough.
type Fault struct {
	// Delay is slept once, before the connection's first Read — a slow
	// client (or a slow network) from the server's point of view.
	Delay time.Duration
	// CutAfter, when positive, abruptly closes the connection after
	// that many bytes have been written to it. The write that crosses
	// the budget is truncated at the boundary, so clients observe a
	// torn response followed by a reset — not a clean EOF at a message
	// boundary.
	CutAfter int
}

func (f Fault) isZero() bool { return f.Delay == 0 && f.CutAfter == 0 }

// Plan assigns a Fault to the i-th accepted connection (0-based).
type Plan func(i int) Fault

// None is the passthrough plan.
func None(int) Fault { return Fault{} }

// EveryNth builds a plan injecting fault f into every n-th connection
// (the n-1st, 2n-1st, ... accepted), all others untouched. n <= 0
// never injects.
func EveryNth(n int, f Fault) Plan {
	return func(i int) Fault {
		if n > 0 && (i+1)%n == 0 {
			return f
		}
		return Fault{}
	}
}

// Stats counts what the harness has done, for test assertions.
type Stats struct {
	Accepted int64 // connections accepted
	Faulted  int64 // connections that got a non-zero fault
	Cut      int64 // connections abruptly closed by a byte budget
}

// Listener wraps an inner listener with a fault plan.
type Listener struct {
	net.Listener
	plan  Plan
	n     atomic.Int64
	fault atomic.Int64
	cut   atomic.Int64
}

// Wrap returns a Listener applying plan to every accepted connection.
// A nil plan means None.
func Wrap(inner net.Listener, plan Plan) *Listener {
	if plan == nil {
		plan = None
	}
	return &Listener{Listener: inner, plan: plan}
}

// Accept accepts from the inner listener and applies the plan.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	i := l.n.Add(1) - 1
	f := l.plan(int(i))
	if f.isZero() {
		return c, nil
	}
	l.fault.Add(1)
	return &conn{Conn: c, fault: f, onCut: func() { l.cut.Add(1) }}, nil
}

// Stats returns a snapshot of the harness counters.
func (l *Listener) Stats() Stats {
	return Stats{Accepted: l.n.Load(), Faulted: l.fault.Load(), Cut: l.cut.Load()}
}

// conn applies one Fault to a net.Conn.
type conn struct {
	net.Conn
	fault     Fault
	onCut     func()
	delayOnce sync.Once
	written   atomic.Int64
	cutDone   atomic.Bool
}

func (c *conn) Read(p []byte) (int, error) {
	if c.fault.Delay > 0 {
		c.delayOnce.Do(func() { time.Sleep(c.fault.Delay) })
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if c.fault.CutAfter <= 0 {
		return c.Conn.Write(p)
	}
	total := c.written.Add(int64(len(p)))
	if total <= int64(c.fault.CutAfter) {
		return c.Conn.Write(p)
	}
	// This write crosses the byte budget: flush the allowed prefix so
	// the client sees a torn body, then kill the connection hard.
	allowed := int64(c.fault.CutAfter) - (total - int64(len(p)))
	if allowed < 0 {
		allowed = 0
	}
	n := 0
	if allowed > 0 {
		n, _ = c.Conn.Write(p[:allowed])
	}
	c.cut()
	return n, net.ErrClosed
}

// cut closes the connection abruptly; for TCP, SO_LINGER 0 turns the
// close into an RST so the peer sees a reset rather than a tidy FIN.
// The cut is counted before the close, so a peer that has seen the
// reset also sees it in Stats.
func (c *conn) cut() {
	if !c.cutDone.CompareAndSwap(false, true) {
		return
	}
	if c.onCut != nil {
		c.onCut()
	}
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}
