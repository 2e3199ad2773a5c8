package main

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/wal"
)

// serverConfig is the pipeserve configuration a workload runs against.
type serverConfig struct {
	data    []string
	walDir  string // empty: ingest off
	rebuild time.Duration
}

func (c serverConfig) args() []string {
	var a []string
	for _, d := range c.data {
		a = append(a, "-data", d)
	}
	if c.walDir != "" {
		a = append(a, "-wal-dir", c.walDir, "-wal-sync", "always")
	}
	if c.rebuild > 0 {
		a = append(a, "-rebuild-interval", c.rebuild.String())
	}
	return a
}

// target is a running server the load generator drives: the pipeserve
// binary in untraced runs, or the same server in-process, behind a
// span-recording handler, in traced runs.
type target struct {
	base    string
	ctl     *http.Client // control connection: set-up, scrapes, checks
	stop    func() (peakMB float64, err error)
	tracing *atomic.Bool // in-process only: whether handler spans are recorded
}

func startTarget(r *run, cfg serverConfig, tr *tracer, name string) (*target, error) {
	logPath := filepath.Join(r.work, name+".log")
	t := &target{ctl: newConn(), tracing: new(atomic.Bool)}
	if !r.trace {
		srv, err := startServer(r.bin, logPath, cfg.args()...)
		if err != nil {
			return nil, err
		}
		t.base, t.stop = srv.base, srv.stop
	} else if err := startInProcess(t, cfg, tr, logPath); err != nil {
		return nil, err
	}
	if err := waitReady(t.ctl, t.base, 60*time.Second); err != nil {
		_, _ = t.stop()
		return nil, err
	}
	return t, nil
}

// startInProcess assembles the server the way cmd/pipeserve does and
// serves it on a loopback listener from this process.
func startInProcess(t *target, cfg serverConfig, tr *tracer, logPath string) error {
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	var nets []*pipefail.Network
	for _, d := range cfg.data {
		n, err := pipefail.LoadNetwork(d)
		if err != nil {
			logf.Close()
			return err
		}
		nets = append(nets, n)
	}
	s, err := serve.NewMulti(nets, log.New(logf, "pipeserve: ", log.LstdFlags), pipefail.WithSeed(1))
	if err != nil {
		logf.Close()
		return err
	}
	if cfg.walDir != "" {
		if err := s.SetEventLog(serve.EventLogConfig{
			Dir:             cfg.walDir,
			Sync:            wal.SyncAlways,
			SyncInterval:    100 * time.Millisecond,
			SegmentBytes:    8 << 20,
			MaxBacklogBytes: 16 << 20,
			WindowDays:      366,
		}); err != nil {
			logf.Close()
			return err
		}
	}
	s.StartRebuildScheduler(cfg.rebuild, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logf.Close()
		return err
	}
	hs := &http.Server{
		Handler:           &tracedHandler{h: s.Handler(), tr: tr, on: t.tracing},
		ReadHeaderTimeout: 5 * time.Second,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.base = "http://" + ln.Addr().String()
	t.stop = func() (float64, error) {
		s.BeginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		logf.Close()
		return 0, err
	}
	return nil
}

// tracedHandler records one span around Handler().ServeHTTP per request
// while on is set, keyed by the op ID the load generator sent.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
	on *atomic.Bool
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !th.on.Load() {
		th.h.ServeHTTP(w, r)
		return
	}
	opID, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	id := th.tr.begin("serve.handler."+routeOf(r.URL.Path), 0, opID)
	th.h.ServeHTTP(w, r)
	th.tr.end(id)
}

// routeOf maps a request path to the route names serve uses in its
// metrics.
func routeOf(path string) string {
	switch {
	case path == "/api/plan":
		return "plan"
	case path == "/api/bulk/rank":
		return "bulkrank"
	case path == "/api/events":
		return "events"
	case strings.HasPrefix(path, "/api/pipes/"):
		return "pipe"
	case strings.HasPrefix(path, "/api/models/") && strings.HasSuffix(path, "/ranking"):
		return "ranking"
	}
	return "other"
}

// httpLayers derives the per-route handler and transport metrics of a
// traced run: handler time is the span around ServeHTTP, transport time
// is the client's time on the wire minus that span for the same op.
func httpLayers(res *result, spans []span, outs []outcome) {
	handler := map[int64]time.Duration{}
	byRoute := map[string][]float64{}
	for _, s := range spans {
		if rt, ok := strings.CutPrefix(s.Name, "serve.handler."); ok {
			handler[s.Op] = s.dur()
			byRoute[rt] = append(byRoute[rt], us(s.dur()))
		}
	}
	transport := map[string][]float64{}
	for _, o := range outs {
		if h, ok := handler[int64(o.id)]; ok && o.ok() {
			transport[o.route] = append(transport[o.route], us(o.service()-h))
		}
	}
	for _, rt := range routes {
		if v := byRoute[rt]; len(v) > 0 {
			res.metrics["serve.handler_us."+rt] = median(v)
		}
		if v := transport[rt]; len(v) > 0 {
			res.metrics["http.transport_us."+rt] = median(v)
		}
	}
}

// traceSlice is how long handler tracing stays on, then off, in turn.
const traceSlice = 250 * time.Millisecond

// toggleTracing flips a traced run's handler tracing on and off every
// traceSlice until ctx ends, so the traced and untraced halves of one
// run see the same server state; their latency difference is the
// tracing overhead. The returned channel closes once it has stopped.
// Untraced runs have nothing to toggle.
func toggleTracing(ctx context.Context, r *run, on *atomic.Bool, start time.Time) <-chan struct{} {
	done := make(chan struct{})
	if !r.trace {
		close(done)
		return done
	}
	go func() {
		defer close(done)
		for {
			k := int(time.Since(start) / traceSlice)
			on.Store(k%2 == 0)
			next := start.Add(time.Duration(k+1) * traceSlice)
			select {
			case <-ctx.Done():
				on.Store(false)
				return
			case <-time.After(time.Until(next)):
			}
		}
	}()
	return done
}

// overheadMS is the tracing overhead: median latency of ops due while
// tracing was on minus that of ops due while it was off.
func overheadMS(outs []outcome) float64 {
	var on, off []float64
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		if int(o.at/traceSlice)%2 == 0 {
			on = append(on, ms(o.service()))
		} else {
			off = append(off, ms(o.service()))
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on) - median(off)
}
