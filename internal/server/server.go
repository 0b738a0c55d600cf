// Package server implements the nymbled daemon: the whole nymble tool
// family behind one HTTP/JSON service. POST /v1/compile, /v1/vet and
// /v1/perf wrap the same library calls as nymblec, nymblevet and
// nymbleperf and marshal the same internal/api structs, so their
// responses are byte-identical to the CLIs' -json output.
//
// POST /v1/run is a simulation job: admit (a warm store hit answers
// at once), coalesce identical requests onto one flight, submit to the
// bounded worker pool, simulate, persist the Paraver bundle and its
// summary.json to the artifact store, and serve the bundle from
// GET /v1/jobs/{id}/trace/{file} — the exact bytes nymblesim writes.
//
// Builds are single-flighted through a content-addressed compile cache
// (hits are reported via the X-Nymbled-Cache header so the body stays
// byte-identical either way), every request runs under the client's
// context (cancellation and per-job deadlines propagate into the
// simulator's event loop), and Shutdown drains in-flight jobs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"paravis/internal/api"
	"paravis/internal/core"
	"paravis/internal/parallel"
	"paravis/internal/sim"
	"paravis/internal/store"
)

// Options configures a Server.
type Options struct {
	// Workers bounds how many simulations run concurrently (<= 0 uses
	// parallel.DefaultWorkers()).
	Workers int
	// SimCfg is the base simulator configuration; per-request MaxCycles
	// overrides apply on top of it.
	SimCfg sim.Config
	// Store persists finished run artifacts by digest so repeat requests
	// — across restarts too — are served from disk without recompiling
	// or resimulating (nil = in-memory caching only).
	Store *store.Store
	// CoalesceWindow is how long a finished run's flight lingers so
	// immediately repeated identical requests still coalesce onto it.
	CoalesceWindow time.Duration
	// CoalesceMax caps how many requests may share one flight (0 =
	// unlimited); past it POST /v1/run sheds load with 429.
	CoalesceMax int
	// MaxQueue bounds how many runs may wait for a worker (0 =
	// unlimited); past it POST /v1/run sheds load with 429 + Retry-After.
	MaxQueue int
	// JobTTL is how long a finished job document stays queryable before
	// the reaper drops it from the registry (0 = 15 min default,
	// negative = keep forever). Without a TTL a long-running daemon's
	// job map — one entry per run, including warm hits and coalesced
	// followers — grows without bound.
	JobTTL time.Duration
}

// defaultJobTTL bounds the job registry when Options.JobTTL is zero.
const defaultJobTTL = 15 * time.Minute

// Server is the nymbled request handler plus its long-lived state: the
// compile cache, the artifact store, the run coalescer, the simulation
// worker pool and the job registry.
type Server struct {
	cache *core.Cache
	pool  *parallel.Pool
	coal  *store.Coalescer
	cfg   Options

	jobs    sync.Map // job id -> *job
	jobSeq  counter
	metrics metrics

	stop chan struct{} // closed on Shutdown; ends the reap loop
	wg   sync.WaitGroup

	shutMu   sync.Mutex
	shutdown bool
}

// New builds a Server and starts its worker pool and job reaper.
func New(opts Options) *Server {
	if opts.SimCfg.MaxCycles == 0 {
		opts.SimCfg = sim.DefaultConfig()
	}
	s := &Server{
		cache: core.NewCache(),
		pool:  parallel.NewPool(opts.Workers),
		coal:  &store.Coalescer{Window: opts.CoalesceWindow, MaxWaiters: opts.CoalesceMax},
		cfg:   opts,
		stop:  make(chan struct{}),
	}
	ttl := opts.JobTTL
	if ttl == 0 {
		ttl = defaultJobTTL
	}
	if ttl > 0 {
		s.wg.Add(1)
		go s.reapLoop(ttl)
	}
	return s
}

// reapLoop drops finished jobs older than ttl, bounding the job
// registry (and the trace artifacts its entries reference) on a
// long-running daemon. Queued and running jobs are never reaped.
func (s *Server) reapLoop(ttl time.Duration) {
	defer s.wg.Done()
	period := ttl / 4
	if period > time.Minute {
		period = time.Minute
	}
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.reapJobs(time.Now(), ttl)
		}
	}
}

func (s *Server) reapJobs(now time.Time, ttl time.Duration) {
	s.jobs.Range(func(k, v any) bool {
		j := v.(*job)
		j.mu.Lock()
		expired := !j.doneAt.IsZero() && now.Sub(j.doneAt) >= ttl
		j.mu.Unlock()
		if expired {
			s.jobs.Delete(k)
			s.metrics.jobsReaped.Add(1)
		}
		return true
	})
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.handleCompile))
	mux.HandleFunc("POST /v1/vet", s.instrument("vet", s.handleVet))
	mux.HandleFunc("POST /v1/perf", s.instrument("perf", s.handlePerf))
	mux.HandleFunc("POST /v1/run", s.instrument("run", s.handleRun))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("jobs", s.handleJobCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/trace/{file}", s.instrument("trace", s.handleTrace))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Shutdown stops accepting new jobs, cancels the ones still queued or
// running, and waits for the worker pool to drain. The ctx bounds the
// wait; on expiry the pool is abandoned (its goroutines exit once their
// canceled simulations notice).
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutMu.Lock()
	already := s.shutdown
	s.shutdown = true
	s.shutMu.Unlock()
	if already {
		return nil
	}
	close(s.stop)
	s.wg.Wait()
	s.jobs.Range(func(_, v any) bool {
		v.(*job).cancel(errors.New("server shutting down"))
		return true
	})
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown wait: %w", ctx.Err())
	}
}

func (s *Server) closing() bool {
	s.shutMu.Lock()
	defer s.shutMu.Unlock()
	return s.shutdown
}

// build compiles through the content-addressed cache and records the
// hit in the response header (never the body, so responses stay
// byte-identical across cache states).
func (s *Server) build(ctx context.Context, w http.ResponseWriter, src string, opts core.BuildOptions) (*core.Program, error) {
	p, hit, err := s.cache.Build(ctx, src, opts)
	if w != nil {
		if hit {
			w.Header().Set("X-Nymbled-Cache", "hit")
		} else {
			w.Header().Set("X-Nymbled-Cache", "miss")
		}
	}
	return p, err
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req api.CompileRequest
	if !decode(w, r, &req) {
		return
	}
	p, err := s.build(r.Context(), w, req.Source, core.BuildOptions{Defines: req.Defines, VectorLanes: req.VectorLanes})
	if err != nil {
		writeBuildError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.NewCompileReport(p))
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req api.VetRequest
	if !decode(w, r, &req) {
		return
	}
	name := req.Name
	if name == "" {
		name = "<request>"
	}
	writeJSON(w, http.StatusOK, api.VetReport{
		SchemaVersion: api.Version,
		Units:         []api.VetUnit{api.Vet(name, req.Source, req.Defines)},
	})
}

func (s *Server) handlePerf(w http.ResponseWriter, r *http.Request) {
	var req api.PerfRequest
	if !decode(w, r, &req) {
		return
	}
	name := req.Name
	if name == "" {
		name = "<request>"
	}
	p, err := s.build(r.Context(), w, req.Source, core.BuildOptions{Defines: req.Defines})
	var unit api.PerfUnit
	if err != nil {
		if isCtxErr(err) {
			writeBuildError(w, err)
			return
		}
		unit = api.NewPerfUnit(name, nil, nil, nil, err)
	} else {
		unit = api.AnalyzePerf(name, p, req.Params)
	}
	writeJSON(w, http.StatusOK, api.PerfReport{
		SchemaVersion: api.Version,
		Units:         []api.PerfUnit{unit},
	})
}

// handleHealthz reports liveness plus the cache-shaped counters of the
// daemon's long-lived state (compile cache, artifact store, coalescer),
// so one probe doubles as a stats scrape.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := api.Health{
		SchemaVersion: api.Version,
		Status:        "ok",
		CompileCache:  s.cache.Stats(),
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		doc.Store = &st
	}
	cs := s.coal.Stats()
	doc.Coalescing = &cs
	status := http.StatusOK
	if s.closing() {
		doc.Status = "shutting_down"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, doc)
}

// isCtxErr reports whether err is rooted in a context cancellation or
// deadline (as opposed to a real compile/run failure).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// writeBuildError maps a core.Build failure onto the wire: compile
// errors are the client's fault (422), abandoned builds map to 499/504.
func writeBuildError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline", err)
	case errors.Is(err, context.Canceled):
		writeError(w, 499, "canceled", err) // nginx's client-closed-request
	default:
		writeError(w, http.StatusUnprocessableEntity, "compile_error", err)
	}
}

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, api.Error{SchemaVersion: api.Version, Err: err.Error(), Kind: kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = api.Encode(w, v)
}

// maxBodyBytes bounds every request body. The largest a documented
// workload sends is a /v1/run that preloads DIM=512 GEMM buffers: A and
// B hold 2 × 512² = 524,288 float32s, at most 15 bytes each as JSON
// ("-1.1754944e-38,"), so about 7.9 MB. The bound doubles that.
const maxBodyBytes = 16 << 20

// decode parses the JSON request body; on failure it writes the 400 (413
// for a body over maxBodyBytes) and reports false.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := decodeJSON(w, r, v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad_request", err)
	}
	return err == nil
}

// decodeJSON reads exactly one JSON value, with unknown fields rejected
// so typos in request JSON surface as 400s instead of silent defaults.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, "application/json") {
		return fmt.Errorf("unsupported content type %q", ct)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("bad request body: data after the JSON value")
	default:
		return fmt.Errorf("bad request body after the JSON value: %w", err)
	}
}
