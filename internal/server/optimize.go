package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"paravis/internal/api"
	"paravis/internal/autotune"
	"paravis/internal/core"
	"paravis/internal/parallel"
	"paravis/internal/store"
)

// Artifact file names of a finished optimize job.
const (
	fileOptReport   = "optimize-report.json"
	fileOptSource   = "optimized.mc"
	fileOptBefore   = "before-perf.json"
	fileOptAfter    = "after-perf.json"
	fileOptDocument = "optimize.json" // store-only summary document
)

// handleOptimize runs the transformation search as an asynchronous job:
// POST returns a queued job document, GET /v1/jobs/{id} polls it,
// DELETE cancels the search mid-flight, and the finished job serves its
// artifacts (the report, the winning source, before/after perf reports)
// under /v1/jobs/{id}/artifacts/{file}. Finished searches persist in
// the artifact store by request digest, so identical requests — across
// restarts too — are disk reads.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req api.OptimizeRequest
	if !decode(w, r, &req) {
		return
	}
	if s.closing() {
		writeError(w, http.StatusServiceUnavailable, "shutting_down",
			errors.New("server is shutting down"))
		return
	}

	digest := api.OptimizeKey(&req)
	w.Header().Set("X-Nymbled-Run-Digest", digest)
	if s.cfg.Store != nil {
		if ent, ok := s.cfg.Store.Get(digest); ok {
			if j, err := s.optimizeJobFromStore(ent); err == nil {
				w.Header().Set("X-Nymbled-Store", "hit")
				s.metrics.runsFromStore.Add(1)
				writeJSON(w, http.StatusOK, j.snapshot())
				return
			}
		}
		w.Header().Set("X-Nymbled-Store", "miss")
	}

	ctx, cancelCause := context.WithCancelCause(context.Background())
	cancelTimer := context.CancelFunc(func() {})
	if req.TimeoutMs > 0 {
		ctx, cancelTimer = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
	}
	cancel := func(cause error) {
		cancelCause(cause)
		cancelTimer()
	}

	j := s.newJob(req.Name, cancel, nil, false)
	task := func() {
		defer close(j.done)
		defer cancel(errors.New("job finished"))
		s.runOptimize(ctx, j, &req, digest)
	}
	if err := s.pool.TrySubmit(task, s.cfg.MaxQueue); err != nil {
		s.jobs.Delete(j.id)
		if errors.Is(err, parallel.ErrQueueFull) {
			s.writeBusy(w, err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err)
		return
	}

	if !req.Wait {
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

// runOptimize executes one search on a pool worker and fills the job
// with the report and its artifact bundle.
func (s *Server) runOptimize(ctx context.Context, j *job, req *api.OptimizeRequest, digest string) {
	j.setState(api.JobRunning)
	s.metrics.simsStarted.Add(1)
	name := req.Name
	if name == "" {
		name = "kernel"
	}
	res, err := autotune.Optimize(ctx, name, req.Source, autotune.Options{
		Defines:     req.Defines,
		VectorLanes: req.VectorLanes,
		Params:      req.Params,
		Floats:      req.Floats,
		Budget:      autotune.Budget{Candidates: req.Budget},
		MaxRounds:   req.MaxRounds,
	})
	s.metrics.simsFinished.Add(1)
	if err != nil {
		j.failOptimize(err)
		return
	}

	unit := api.NewOptimizeUnit(name, res, nil)
	files, names := s.renderOptimizeArtifact(req, unit)
	// The store answers every later identical request, so only a search
	// whose context is still live — no deadline passed, no client cancel —
	// may write to it.
	if err := ctx.Err(); err != nil {
		j.failOptimize(fmt.Errorf("optimize: %w", err))
		return
	}
	s.persistOptimize(digest, unit, names, files)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return
	}
	j.state = api.JobDone
	j.kernel = unit.Kernel
	j.optimize = &unit
	j.artifacts = names
	j.art = &artifact{files: files}
	j.doneAt = time.Now()
}

// failOptimize ends the job with err: a passed deadline or a cancel ends
// it canceled, anything else failed (no-op if the job was canceled
// first).
func (j *job) failOptimize(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return
	}
	j.errMsg = err.Error()
	j.doneAt = time.Now()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		j.state = api.JobCanceled
		j.canceled = true
		j.errKind = "deadline"
	case isCtxErr(err):
		j.state = api.JobCanceled
		j.canceled = true
		j.errKind = "canceled"
	default:
		j.state = api.JobFailed
		j.errKind = "compile_error"
	}
}

// renderOptimizeArtifact assembles the downloadable bundle: the full
// report (byte-identical to nymbleopt -json for the same input), the
// winning kernel source, and static perf reports for the baseline and
// the winner so before/after brackets are diffable.
func (s *Server) renderOptimizeArtifact(req *api.OptimizeRequest, unit api.OptimizeUnit) (map[string][]byte, []string) {
	files := map[string][]byte{}
	var report bytes.Buffer
	if err := api.Encode(&report, api.OptimizeReport{SchemaVersion: api.Version, Units: []api.OptimizeUnit{unit}}); err == nil {
		files[fileOptReport] = report.Bytes()
	}
	if before := s.perfReportBytes(unit.Name, req.Source, req.Defines, req.VectorLanes, req.Params); before != nil {
		files[fileOptBefore] = before
	}
	if unit.Source != "" {
		files[fileOptSource] = []byte(unit.Source)
		// The winning source is canonical: defines are folded, only the
		// lane count matters.
		lanes := req.VectorLanes
		if lanes == 0 {
			lanes = 4
		}
		if after := s.perfReportBytes(unit.Name+" (optimized)", unit.Source, nil, lanes, req.Params); after != nil {
			files[fileOptAfter] = after
		}
	}
	names := make([]string, 0, len(files))
	for _, n := range []string{fileOptReport, fileOptSource, fileOptBefore, fileOptAfter} {
		if _, ok := files[n]; ok {
			names = append(names, n)
		}
	}
	return files, names
}

// perfReportBytes is nymbleperf's analysis rendered to bytes (nil when
// the source does not build — the optimize report already carries the
// error). It builds outside the compile cache, as the search does: the
// artifact store answers every repeat of the job, so a cached program
// would only stay pinned for the life of the daemon.
func (s *Server) perfReportBytes(name, src string, defines map[string]string, lanes int, params map[string]int64) []byte {
	prog, err := core.Build(context.Background(), src, core.BuildOptions{Defines: defines, VectorLanes: lanes})
	if err != nil {
		return nil
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, api.PerfReport{
		SchemaVersion: api.Version,
		Units:         []api.PerfUnit{api.AnalyzePerf(name, prog, params)},
	}); err != nil {
		return nil
	}
	return buf.Bytes()
}

// persistOptimize writes the finished search into the artifact store so
// identical requests are disk reads. Failures are counted, not fatal.
func (s *Server) persistOptimize(digest string, unit api.OptimizeUnit, names []string, files map[string][]byte) {
	if s.cfg.Store == nil {
		return
	}
	doc := api.StoredOptimize{SchemaVersion: api.Version, Unit: unit, Artifacts: names}
	var buf bytes.Buffer
	if err := api.Encode(&buf, doc); err != nil {
		s.metrics.storeErrors.Add(1)
		return
	}
	stored := make(map[string][]byte, len(files)+1)
	for name, data := range files {
		stored[name] = data
	}
	stored[fileOptDocument] = buf.Bytes()
	if err := s.cfg.Store.Put(digest, stored); err != nil {
		s.metrics.storeErrors.Add(1)
	}
}

// optimizeJobFromStore rebuilds a done optimize job from a persisted
// artifact bundle.
func (s *Server) optimizeJobFromStore(ent store.Entry) (*job, error) {
	data, err := ent.ReadFile(fileOptDocument)
	if err != nil {
		return nil, err
	}
	var doc api.StoredOptimize
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("corrupt stored optimize document: %w", err)
	}
	j := s.newJob(doc.Unit.Kernel, nil, nil, false)
	j.mu.Lock()
	j.state = api.JobDone
	j.optimize = &doc.Unit
	j.artifacts = doc.Artifacts
	j.art = &artifact{ent: ent, disk: true}
	j.doneAt = time.Now()
	j.mu.Unlock()
	close(j.done)
	return j, nil
}

// handleArtifact serves one optimize artifact file from the job.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	art := j.art
	state := j.state
	artifacts := j.artifacts
	j.mu.Unlock()
	if state != api.JobDone {
		writeError(w, http.StatusConflict, "not_done",
			fmt.Errorf("job %s is %s, not done", j.id, state))
		return
	}
	name := r.PathValue("file")
	valid := false
	for _, f := range artifacts {
		if f == name {
			valid = true
			break
		}
	}
	if art == nil || !valid {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("no artifact file %q", name))
		return
	}
	data, err := art.readFile(name)
	if err != nil {
		writeError(w, http.StatusGone, "evicted",
			fmt.Errorf("artifact for job %s no longer available: %v", j.id, err))
		return
	}
	w.Header().Set("Content-Type", artifactContentType(name))
	if _, err := w.Write(data); err != nil {
		s.metrics.traceErrors.Add(1)
	}
}

func artifactContentType(name string) string {
	switch name {
	case fileOptSource:
		return "text/plain; charset=utf-8"
	default:
		return "application/json; charset=utf-8"
	}
}
