package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"path"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paravis/internal/api"
	"paravis/internal/parallel"
	"paravis/internal/store"
)

// artifact is a finished job's files: either rendered in memory by the
// worker that produced them, or backed by the persistent store.
type artifact struct {
	files map[string][]byte // in-memory form (nil when disk-backed)
	ent   store.Entry       // disk-backed form
	disk  bool
}

func (a *artifact) readFile(name string) ([]byte, error) {
	if a.disk {
		return a.ent.ReadFile(name)
	}
	data, ok := a.files[name]
	if !ok {
		return nil, fmt.Errorf("no artifact file %q", name)
	}
	return data, nil
}

// runResult is the outcome of one run. It fills the job, and a coalesced
// run shares it with every request attached to its flight.
type runResult struct {
	kernel  string
	state   string
	errMsg  string
	errKind string
	summary *api.RunSummary
	trace   []string // the Paraver bundle files
	art     *artifact
}

// job is one queued/running/finished run (or a handle on a
// stored/coalesced result). The job owns its context: DELETE
// /v1/jobs/{id}, a per-request timeout and server shutdown all cancel
// it, and the simulator's event loop notices.
type job struct {
	id     string
	cancel context.CancelCauseFunc
	done   chan struct{}

	// flight is the coalesced run flight this job is attached to (nil
	// otherwise); leads marks the job whose cancel owns the flight's
	// simulation. detached makes abandon idempotent.
	flight   *store.Flight
	leads    bool
	detached atomic.Bool

	mu sync.Mutex
	runResult
	canceled bool
	doneAt   time.Time // when the job reached a terminal state
}

func (j *job) snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.Job{
		SchemaVersion: api.Version,
		ID:            j.id,
		State:         j.state,
		Kernel:        j.kernel,
		Error:         j.errMsg,
		ErrorKind:     j.errKind,
		Summary:       j.summary,
		Trace:         j.trace,
	}
}

// setState transitions the job unless it was already canceled (a
// canceled job stays canceled even if the worker later reports in).
func (j *job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.canceled {
		j.state = state
	}
}

func (j *job) markCanceled(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == api.JobDone || j.state == api.JobFailed {
		return
	}
	j.canceled = true
	j.state = api.JobCanceled
	j.doneAt = time.Now()
	if j.errMsg == "" {
		j.errMsg = reason
		j.errKind = "canceled"
	}
}

// abandon is the client-side cancel path (DELETE /v1/jobs/{id}, a
// synchronous client disconnecting): the job detaches from its shared
// flight first, and a leader only cancels the underlying simulation
// when it was the last request attached — one client canceling must
// never kill a result other coalesced clients are still waiting on.
func (j *job) abandon(cause error) {
	if j.flight != nil {
		if !j.detached.CompareAndSwap(false, true) {
			return // already detached; the cancel decision was made
		}
		if left := j.flight.Detach(); j.leads && left > 0 {
			return // followers remain: the simulation keeps running for them
		}
	}
	j.cancel(cause)
}

// fill copies a result into the job (no-op if the job was canceled
// first).
func (j *job) fill(res *runResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return
	}
	j.runResult = *res
	j.doneAt = time.Now()
	if res.state == api.JobCanceled {
		j.canceled = true
	}
}

// newJob registers a fresh job. cancel may be nil (jobs that never own a
// context, e.g. store hits). f is the coalesced flight the job is
// attached to (nil for none); leads marks the flight's leader. Both are
// set before the job is published in the registry, so concurrent
// DELETE handlers read them safely.
func (s *Server) newJob(kernel string, cancel context.CancelCauseFunc, f *store.Flight, leads bool) *job {
	if cancel == nil {
		cancel = func(error) {}
	}
	j := &job{
		id:        fmt.Sprintf("job-%d", s.jobSeq.next()),
		cancel:    cancel,
		done:      make(chan struct{}),
		runResult: runResult{state: api.JobQueued, kernel: kernel},
		flight:    f,
		leads:     leads,
	}
	s.jobs.Store(j.id, j)
	s.metrics.jobsCreated.Add(1)
	return j
}

// writeBusy sheds load: 429 with a parseable Retry-After, counted in
// nymbled_rate_limited_total.
func (s *Server) writeBusy(w http.ResponseWriter, err error) {
	s.metrics.rateLimited.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(1))
	writeError(w, http.StatusTooManyRequests, "busy", err)
}

// admit is what a run POST does before its own work: refuse during
// shutdown, set the digest header, and answer a warm store hit — one
// lookup replaces the whole job. It reports whether the request still
// needs serving.
func (s *Server) admit(w http.ResponseWriter, digest string) bool {
	if s.closing() {
		writeError(w, http.StatusServiceUnavailable, "shutting_down",
			errors.New("server is shutting down"))
		return false
	}
	w.Header().Set("X-Nymbled-Run-Digest", digest)
	if s.cfg.Store == nil {
		return true
	}
	if ent, ok := s.cfg.Store.Get(digest); ok {
		if j, err := s.restore(ent); err == nil {
			w.Header().Set("X-Nymbled-Store", "hit")
			s.metrics.runsFromStore.Add(1)
			writeJSON(w, http.StatusOK, j.snapshot())
			return false
		}
		// Entry evicted between Get and read: treat as a miss.
	}
	w.Header().Set("X-Nymbled-Store", "miss")
	return true
}

// jobSpec is one admitted run POST as the job lifecycle runs it.
type jobSpec struct {
	digest    string
	kernel    string // the job's kernel name until its result names one
	timeoutMs int64  // deadline for the work (0 = none)
	wait      bool
	// work runs on a pool worker under the job's context; it returns the
	// result and, when done, the document stored beside its files.
	work func(ctx context.Context) (*runResult, *api.StoredRun)
	// flight is the coalesced flight the job leads; finish gets the job's
	// result as it ends, or the pool's refusal.
	flight *store.Flight
	finish func(*runResult, error)
}

// start registers the job, queues its work on the worker pool and
// answers the POST. The job's context descends from Background, not the
// request, so an async client may disconnect freely; wait mode ties the
// two together in answer. A done result is persisted before the job
// shows it. The pool refuses with 429 when its queue is full and 503
// during shutdown.
func (s *Server) start(w http.ResponseWriter, r *http.Request, spec jobSpec) {
	ctx, cancelCause := context.WithCancelCause(context.Background())
	cancelTimer := context.CancelFunc(func() {})
	if spec.timeoutMs > 0 {
		ctx, cancelTimer = context.WithTimeout(ctx, time.Duration(spec.timeoutMs)*time.Millisecond)
	}
	cancel := func(cause error) {
		cancelCause(cause)
		cancelTimer()
	}
	j := s.newJob(spec.kernel, cancel, spec.flight, true)
	task := func() {
		defer close(j.done)
		defer cancel(errors.New("job finished"))
		j.setState(api.JobRunning)
		s.metrics.simsStarted.Add(1)
		res, doc := spec.work(ctx)
		s.metrics.simsFinished.Add(1)
		s.persist(spec.digest, res, doc)
		j.fill(res)
		spec.finish(res, nil)
	}
	if err := s.pool.TrySubmit(task, s.cfg.MaxQueue); err != nil {
		s.jobs.Delete(j.id)
		cancel(err)
		spec.finish(nil, err)
		if errors.Is(err, parallel.ErrQueueFull) {
			s.writeBusy(w, err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err)
		return
	}
	answer(w, r, j, spec.wait)
}

// answer replies to a job POST: 202 with the queued job, or in wait mode
// the finished one. A waiting client that goes away abandons the job and
// is not waited for: a leader's simulation may run on long after it for
// coalesced followers.
func answer(w http.ResponseWriter, r *http.Request, j *job, wait bool) {
	if !wait {
		writeJSON(w, http.StatusAccepted, j.snapshot())
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		j.abandon(context.Cause(r.Context()))
		j.markCanceled("client disconnected")
	}
	doc := j.snapshot()
	writeJSON(w, waitStatus(doc), doc)
}

// waitStatus maps a finished job document onto the synchronous-mode
// HTTP status: cycle-budget overruns are the request's fault (422), not
// a server failure (500).
func waitStatus(doc api.Job) int {
	switch doc.State {
	case api.JobDone:
		return http.StatusOK
	case api.JobCanceled:
		if doc.ErrorKind == "deadline" {
			return http.StatusGatewayTimeout
		}
		return 499
	default:
		switch doc.ErrorKind {
		case "max_cycles", "compile_error":
			return http.StatusUnprocessableEntity
		case "deadline":
			return http.StatusGatewayTimeout
		case "busy":
			return http.StatusTooManyRequests
		default:
			return http.StatusInternalServerError
		}
	}
}

// persist writes a done run's trace bundle plus its summary.json into the
// artifact store, if any, then switches the result to the disk-backed
// artifact: finished jobs stop pinning their bytes in memory, and an
// eviction before a download surfaces as 410 Gone. Storage failures are
// counted, not fatal: the in-memory artifact still serves the job.
func (s *Server) persist(digest string, res *runResult, doc *api.StoredRun) {
	if s.cfg.Store == nil || res.state != api.JobDone {
		return
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, doc); err != nil {
		s.metrics.storeErrors.Add(1)
		return
	}
	stored := make(map[string][]byte, len(res.art.files)+1)
	maps.Copy(stored, res.art.files)
	stored[fileSummary] = buf.Bytes()
	if err := s.cfg.Store.Put(digest, stored); err != nil {
		s.metrics.storeErrors.Add(1)
		return
	}
	if ent, ok := s.cfg.Store.Handle(digest); ok {
		res.art = &artifact{ent: ent, disk: true}
	}
}

// restore rebuilds a done job from a stored entry: summary.json fills
// the job, and its trace bundle serves straight from disk.
func (s *Server) restore(ent store.Entry) (*job, error) {
	data, err := ent.ReadFile(fileSummary)
	if err != nil {
		return nil, err
	}
	var doc api.StoredRun
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	res := &runResult{kernel: doc.Kernel, state: api.JobDone, summary: doc.Summary, trace: doc.Trace,
		art: &artifact{ent: ent, disk: true}}
	j := s.newJob(res.kernel, nil, nil, false)
	j.fill(res)
	close(j.done)
	return j, nil
}

func (s *Server) findJob(w http.ResponseWriter, r *http.Request) *job {
	v, ok := s.jobs.Load(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("no job %q", r.PathValue("id")))
		return nil
	}
	return v.(*job)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j := s.findJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	j.abandon(errors.New("canceled by client"))
	j.markCanceled("canceled by client")
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleTrace serves one Paraver bundle file of a done run, out of memory
// or the store, byte-identical to the files nymblesim puts on disk.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	art, state, files := j.art, j.state, j.trace
	j.mu.Unlock()
	name := r.PathValue("file")
	switch {
	case state != api.JobDone:
		writeError(w, http.StatusConflict, "not_done",
			fmt.Errorf("job %s is %s, not done", j.id, state))
		return
	case len(files) == 0:
		writeError(w, http.StatusNotFound, "no_trace",
			fmt.Errorf("job %s has no trace (profiling disabled)", j.id))
		return
	case !slices.Contains(files, name):
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("job %s has no file %q", j.id, name))
		return
	}
	data, err := art.readFile(name)
	if err != nil {
		// Disk-backed artifact evicted since the job was served: the
		// result is gone, the client should re-run the request.
		writeError(w, http.StatusGone, "evicted",
			fmt.Errorf("artifact for job %s no longer available: %v", j.id, err))
		return
	}
	w.Header().Set("Content-Type", contentType(name))
	if _, err := w.Write(data); err != nil {
		s.metrics.traceErrors.Add(1)
	}
}

func contentType(name string) string {
	if path.Ext(name) == ".gz" {
		return "application/gzip"
	}
	return "text/plain; charset=utf-8"
}
