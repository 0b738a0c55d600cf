package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"paravis/internal/api"
	"paravis/internal/autotune"
	"paravis/internal/core"
)

// Artifact file names of a finished optimize job.
const (
	fileOptReport   = "optimize-report.json"
	fileOptSource   = "optimized.mc"
	fileOptBefore   = "before-perf.json"
	fileOptAfter    = "after-perf.json"
	fileOptDocument = "optimize.json" // store-only summary document
)

// optimizeKind stores a search as its optimize document beside the
// artifacts.
var optimizeKind = jobKind{doc: fileOptDocument, restore: func(data []byte) (*runResult, error) {
	var doc api.StoredOptimize
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return &runResult{kernel: doc.Unit.Kernel, optimize: &doc.Unit, artifacts: doc.Artifacts}, nil
}}

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
	digest := api.OptimizeKey(&req)
	if !s.admit(w, optimizeKind, digest) {
		return
	}
	s.start(w, r, jobSpec{
		kind:      optimizeKind,
		digest:    digest,
		kernel:    req.Name,
		timeoutMs: req.TimeoutMs,
		wait:      req.Wait,
		work: func(ctx context.Context) (*runResult, any) {
			return s.runOptimize(ctx, &req)
		},
	})
}

// runOptimize executes one search on a pool worker and renders its
// artifact bundle; a done search also returns the document the store
// keeps beside the bundle.
func (s *Server) runOptimize(ctx context.Context, req *api.OptimizeRequest) (*runResult, any) {
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
	if err == nil {
		unit := api.NewOptimizeUnit(name, res, nil)
		files, names := renderOptimizeArtifact(ctx, req, unit)
		// The store answers every later identical request, so only a
		// search whose context is still live — no deadline passed, no
		// client cancel — may end done.
		if err = ctx.Err(); err == nil {
			done := &runResult{state: api.JobDone, kernel: unit.Kernel, optimize: &unit,
				artifacts: names, art: &artifact{files: files}}
			return done, api.StoredOptimize{SchemaVersion: api.Version, Unit: unit, Artifacts: names}
		}
		err = fmt.Errorf("optimize: %w", err)
	}
	// A passed deadline or a cancel ends the job canceled, anything else
	// failed.
	failed := &runResult{kernel: req.Name, state: api.JobCanceled, errMsg: err.Error(), errKind: "canceled"}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		failed.errKind = "deadline"
	case !isCtxErr(err):
		failed.state, failed.errKind = api.JobFailed, "compile_error"
	}
	return failed, nil
}

// renderOptimizeArtifact assembles the downloadable bundle: the full
// report (byte-identical to nymbleopt -json for the same input), the
// winning kernel source, and static perf reports for the baseline and
// the winner so before/after brackets are diffable.
func renderOptimizeArtifact(ctx context.Context, req *api.OptimizeRequest, unit api.OptimizeUnit) (map[string][]byte, []string) {
	files := map[string][]byte{}
	var report bytes.Buffer
	if err := api.Encode(&report, api.OptimizeReport{SchemaVersion: api.Version, Units: []api.OptimizeUnit{unit}}); err == nil {
		files[fileOptReport] = report.Bytes()
	}
	opts := core.BuildOptions{Defines: req.Defines, VectorLanes: req.VectorLanes}
	if before := perfReportBytes(ctx, unit.Name, req.Source, opts, req.Params); before != nil {
		files[fileOptBefore] = before
	}
	if unit.Source != "" {
		files[fileOptSource] = []byte(unit.Source)
		// The winning source is canonical: defines are folded, only the
		// lane count matters.
		opts = core.BuildOptions{VectorLanes: req.VectorLanes}
		if opts.VectorLanes == 0 {
			opts.VectorLanes = 4
		}
		if after := perfReportBytes(ctx, unit.Name+" (optimized)", unit.Source, opts, req.Params); after != nil {
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

// perfReportBytes is nymbleperf's report of one source rendered to
// bytes (nil when the source does not build — the optimize report
// already carries the error). It builds outside the compile cache, as
// the search does: the artifact store answers every repeat of the job,
// so a cached program would only displace the daemon's hot entries.
func perfReportBytes(ctx context.Context, name, src string, opts core.BuildOptions, params map[string]int64) []byte {
	unit := api.PerfSource(ctx, name, src, opts, params)
	if unit.Error != "" {
		return nil
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, api.PerfReport{SchemaVersion: api.Version, Units: []api.PerfUnit{unit}}); err != nil {
		return nil
	}
	return buf.Bytes()
}
