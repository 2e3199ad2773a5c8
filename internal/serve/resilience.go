package serve

import (
	"context"
	"net/http"
)

// This file is the resilience middleware for the serve layer: panic
// recovery, load shedding / drain refusal, per-request deadlines, and
// the readiness probe. Ordering (see Server.middleware) puts recovery
// outermost so a panic anywhere below — shedder, handler, encoder —
// still produces a well-formed 500 and a metrics increment instead of a
// dead connection and a crashed process.

// retryAfter1s is the Retry-After header value for shed responses: the
// cap and drain states both clear on the order of a second, so clients
// get a concrete (and deliberately short) backoff hint.
var retryAfter1s = []string{"1"}

// recovered converts a handler panic into a 500 (when no bytes have
// been written yet) plus a serve.panics.recovered increment and a log
// line naming the route. The connection stays usable and the process
// stays up; only the one request is lost.
func (s *Server) recovered(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			s.metrics.handlerPanics.Inc()
			s.log.Printf("serve: panic in %s handler (recovered): %v", route, rec)
			if sw, ok := w.(*statusWriter); ok && !sw.wrote {
				s.writeErr(sw, http.StatusInternalServerError, "internal error")
			}
		}()
		h(w, r)
	}
}

// shed refuses work the server should not take on: everything once
// draining has begun, and requests beyond the in-flight cap when one is
// set. Both cases answer 503 with Retry-After — the orchestrator's load
// balancer reads /readyz, but clients talking to the pod directly still
// get an actionable signal instead of queueing behind a saturated or
// dying server.
func (s *Server) shed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.metrics.shedDraining.Inc()
			w.Header()["Retry-After"] = retryAfter1s
			s.writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		if cap := s.maxInflight; cap > 0 {
			if s.inflightReqs.Add(1) > cap {
				s.inflightReqs.Add(-1)
				s.metrics.shedCapacity.Inc()
				w.Header()["Retry-After"] = retryAfter1s
				s.writeErr(w, http.StatusServiceUnavailable,
					"over capacity (%d requests in flight)", cap)
				return
			}
			defer s.inflightReqs.Add(-1)
		}
		h(w, r)
	}
}

// deadlined bounds the request's context with the configured timeout.
// With no timeout configured it is a passthrough — no context allocation
// on the hot path, which keeps the ranking zero-alloc guarantee.
func (s *Server) deadlined(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.requestTimeout <= 0 {
			h(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// handleReady is the readiness probe: 200 while the server accepts
// work, 503 once draining. Unlike /healthz (pure liveness), this is the
// signal load balancers use to route — it must flip before connections
// drain so no new work lands on a terminating pod. The body reports how
// many models are trained so operators can tell a cold pod from a warm
// one.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	trained := 0
	for _, sh := range s.shards {
		trained += sh.published()
	}
	status, code := "ready", http.StatusOK
	if s.draining.Load() {
		w.Header()["Retry-After"] = retryAfter1s
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]any{"status": status, "models_trained": trained})
}
