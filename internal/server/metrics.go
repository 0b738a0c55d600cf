package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// counter is a monotonically increasing atomic counter.
type counter struct{ n atomic.Int64 }

func (c *counter) next() int64 { return c.n.Add(1) }
func (c *counter) Add(d int64) { c.n.Add(d) }
func (c *counter) Load() int64 { return c.n.Load() }

// routeStats accumulates request count and total latency for one route.
type routeStats struct {
	requests atomic.Int64
	totalNs  atomic.Int64
}

// metrics is the daemon's counter set, exposed at /metrics in the
// Prometheus text format.
type metrics struct {
	mu     sync.Mutex
	routes map[string]*routeStats

	jobsCreated   counter
	jobsReaped    counter
	simsStarted   counter
	simsFinished  counter
	traceErrors   counter
	runsFromStore counter
	storeErrors   counter
	rateLimited   counter
}

func (m *metrics) route(name string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.routes == nil {
		m.routes = map[string]*routeStats{}
	}
	rs, ok := m.routes[name]
	if !ok {
		rs = &routeStats{}
		m.routes[name] = rs
	}
	return rs
}

// instrument wraps a handler with per-route request counting and
// latency accumulation.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		rs := s.metrics.route(route)
		rs.requests.Add(1)
		rs.totalNs.Add(time.Since(start).Nanoseconds())
	}
}

// handleMetrics renders the counters: per-route request totals and
// latency sums, compile-cache hit rate, queue depth and in-flight
// simulations.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	s.metrics.mu.Lock()
	names := make([]string, 0, len(s.metrics.routes))
	for name := range s.metrics.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		name     string
		requests int64
		seconds  float64
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		rs := s.metrics.routes[name]
		rows = append(rows, row{name, rs.requests.Load(), float64(rs.totalNs.Load()) / 1e9})
	}
	s.metrics.mu.Unlock()

	fmt.Fprintln(w, "# HELP nymbled_requests_total Requests served, by route.")
	fmt.Fprintln(w, "# TYPE nymbled_requests_total counter")
	for _, rw := range rows {
		fmt.Fprintf(w, "nymbled_requests_total{route=%q} %d\n", rw.name, rw.requests)
	}
	fmt.Fprintln(w, "# HELP nymbled_request_seconds_total Cumulative handler latency, by route.")
	fmt.Fprintln(w, "# TYPE nymbled_request_seconds_total counter")
	for _, rw := range rows {
		fmt.Fprintf(w, "nymbled_request_seconds_total{route=%q} %g\n", rw.name, rw.seconds)
	}

	cs := s.cache.Stats()
	fmt.Fprintln(w, "# HELP nymbled_compile_cache_hits_total Content-addressed compile cache hits.")
	fmt.Fprintln(w, "# TYPE nymbled_compile_cache_hits_total counter")
	fmt.Fprintf(w, "nymbled_compile_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintln(w, "# HELP nymbled_compile_cache_misses_total Content-addressed compile cache misses.")
	fmt.Fprintln(w, "# TYPE nymbled_compile_cache_misses_total counter")
	fmt.Fprintf(w, "nymbled_compile_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintln(w, "# HELP nymbled_compile_cache_entries Programs held by the compile cache.")
	fmt.Fprintln(w, "# TYPE nymbled_compile_cache_entries gauge")
	fmt.Fprintf(w, "nymbled_compile_cache_entries %d\n", cs.Entries)

	fmt.Fprintln(w, "# HELP nymbled_queue_depth Jobs waiting for a simulation worker.")
	fmt.Fprintln(w, "# TYPE nymbled_queue_depth gauge")
	fmt.Fprintf(w, "nymbled_queue_depth %d\n", s.pool.QueueDepth())
	fmt.Fprintln(w, "# HELP nymbled_inflight_sims Simulations currently executing.")
	fmt.Fprintln(w, "# TYPE nymbled_inflight_sims gauge")
	fmt.Fprintf(w, "nymbled_inflight_sims %d\n", s.pool.InFlight())

	fmt.Fprintln(w, "# HELP nymbled_jobs_total Jobs registered: run jobs, warm store hits and coalesced followers.")
	fmt.Fprintln(w, "# TYPE nymbled_jobs_total counter")
	fmt.Fprintf(w, "nymbled_jobs_total %d\n", s.metrics.jobsCreated.Load())
	fmt.Fprintln(w, "# HELP nymbled_jobs_reaped_total Finished jobs dropped from the registry after JobTTL.")
	fmt.Fprintln(w, "# TYPE nymbled_jobs_reaped_total counter")
	fmt.Fprintf(w, "nymbled_jobs_reaped_total %d\n", s.metrics.jobsReaped.Load())
	live := 0
	s.jobs.Range(func(_, _ any) bool { live++; return true })
	fmt.Fprintln(w, "# HELP nymbled_jobs_live Jobs currently held in the registry.")
	fmt.Fprintln(w, "# TYPE nymbled_jobs_live gauge")
	fmt.Fprintf(w, "nymbled_jobs_live %d\n", live)
	fmt.Fprintln(w, "# HELP nymbled_sims_started_total Simulations handed to a worker.")
	fmt.Fprintln(w, "# TYPE nymbled_sims_started_total counter")
	fmt.Fprintf(w, "nymbled_sims_started_total %d\n", s.metrics.simsStarted.Load())
	fmt.Fprintln(w, "# HELP nymbled_sims_finished_total Simulations that returned (any outcome).")
	fmt.Fprintln(w, "# TYPE nymbled_sims_finished_total counter")
	fmt.Fprintf(w, "nymbled_sims_finished_total %d\n", s.metrics.simsFinished.Load())
	fmt.Fprintln(w, "# HELP nymbled_trace_stream_errors_total Trace downloads aborted mid-stream.")
	fmt.Fprintln(w, "# TYPE nymbled_trace_stream_errors_total counter")
	fmt.Fprintf(w, "nymbled_trace_stream_errors_total %d\n", s.metrics.traceErrors.Load())

	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		fmt.Fprintln(w, "# HELP nymbled_store_bytes Bytes held by the persistent artifact store.")
		fmt.Fprintln(w, "# TYPE nymbled_store_bytes gauge")
		fmt.Fprintf(w, "nymbled_store_bytes %d\n", st.Bytes)
		fmt.Fprintln(w, "# HELP nymbled_store_max_bytes Artifact store byte budget.")
		fmt.Fprintln(w, "# TYPE nymbled_store_max_bytes gauge")
		fmt.Fprintf(w, "nymbled_store_max_bytes %d\n", st.MaxBytes)
		fmt.Fprintln(w, "# HELP nymbled_store_entries Artifacts held by the persistent store.")
		fmt.Fprintln(w, "# TYPE nymbled_store_entries gauge")
		fmt.Fprintf(w, "nymbled_store_entries %d\n", st.Entries)
		fmt.Fprintln(w, "# HELP nymbled_store_hits_total Artifact store lookups that hit.")
		fmt.Fprintln(w, "# TYPE nymbled_store_hits_total counter")
		fmt.Fprintf(w, "nymbled_store_hits_total %d\n", st.Hits)
		fmt.Fprintln(w, "# HELP nymbled_store_misses_total Artifact store lookups that missed.")
		fmt.Fprintln(w, "# TYPE nymbled_store_misses_total counter")
		fmt.Fprintf(w, "nymbled_store_misses_total %d\n", st.Misses)
		fmt.Fprintln(w, "# HELP nymbled_store_evictions_total Artifacts evicted to stay within the byte budget.")
		fmt.Fprintln(w, "# TYPE nymbled_store_evictions_total counter")
		fmt.Fprintf(w, "nymbled_store_evictions_total %d\n", st.Evictions)
		fmt.Fprintln(w, "# HELP nymbled_store_errors_total Artifact persistence failures (runs still served from memory).")
		fmt.Fprintln(w, "# TYPE nymbled_store_errors_total counter")
		fmt.Fprintf(w, "nymbled_store_errors_total %d\n", s.metrics.storeErrors.Load())
	}
	fmt.Fprintln(w, "# HELP nymbled_runs_from_store_total Run requests answered from the artifact store without simulating.")
	fmt.Fprintln(w, "# TYPE nymbled_runs_from_store_total counter")
	fmt.Fprintf(w, "nymbled_runs_from_store_total %d\n", s.metrics.runsFromStore.Load())

	cls := s.coal.Stats()
	fmt.Fprintln(w, "# HELP nymbled_coalesced_runs_total Run requests that shared another request's simulation.")
	fmt.Fprintln(w, "# TYPE nymbled_coalesced_runs_total counter")
	fmt.Fprintf(w, "nymbled_coalesced_runs_total %d\n", cls.Coalesced)
	fmt.Fprintln(w, "# HELP nymbled_coalesce_inflight Distinct run digests currently in flight.")
	fmt.Fprintln(w, "# TYPE nymbled_coalesce_inflight gauge")
	fmt.Fprintf(w, "nymbled_coalesce_inflight %d\n", cls.InFlight)
	fmt.Fprintln(w, "# HELP nymbled_coalesce_rejected_total Run requests shed because a flight hit its size window.")
	fmt.Fprintln(w, "# TYPE nymbled_coalesce_rejected_total counter")
	fmt.Fprintf(w, "nymbled_coalesce_rejected_total %d\n", cls.Rejected)

	fmt.Fprintln(w, "# HELP nymbled_rate_limited_total Requests shed with 429.")
	fmt.Fprintln(w, "# TYPE nymbled_rate_limited_total counter")
	fmt.Fprintf(w, "nymbled_rate_limited_total %d\n", s.metrics.rateLimited.Load())
}
