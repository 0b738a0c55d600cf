package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"paravis/internal/api"
	"paravis/internal/core"
	"paravis/internal/parallel"
	"paravis/internal/sim"
	"paravis/internal/store"
)

// fileSummary is the store-only document of a finished run.
const fileSummary = "summary.json"

// runKind stores a run as its summary document beside the trace bundle.
var runKind = jobKind{doc: fileSummary, restore: func(data []byte) (*runResult, error) {
	var doc api.StoredRun
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return &runResult{kernel: doc.Kernel, summary: doc.Summary, trace: doc.Trace}, nil
}}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if !decode(w, r, &req) {
		return
	}
	digest := api.RunKey(&req)
	if !s.admit(w, runKind, digest) {
		return
	}

	// Coalesce: identical in-flight (or Window-recent) runs share one
	// simulation. Followers attach a job to the leader's flight without
	// compiling or consuming a worker slot.
	f, leader, err := s.coal.Join(digest)
	if err != nil {
		s.writeBusy(w, err)
		return
	}
	if !leader {
		w.Header().Set("X-Nymbled-Store", "coalesced")
		s.serveFollower(w, r, req.Wait, f)
		return
	}

	// Leader: compile synchronously (through the cache) so malformed
	// kernels fail the POST itself rather than a queued job.
	p, err := s.build(r.Context(), w, req.Source, core.BuildOptions{Defines: req.Defines, VectorLanes: req.VectorLanes})
	if err != nil {
		f.Finish(nil, err)
		writeBuildError(w, err)
		return
	}
	args, err := p.RunArgs(req.Ints, req.Floats, req.Buffers)
	if err != nil {
		f.Finish(nil, err)
		writeError(w, http.StatusUnprocessableEntity, "bad_args", err)
		return
	}
	cfg := s.cfg.SimCfg
	cfg.Profile.Enabled = !req.NoProfile
	if req.MaxCycles > 0 {
		cfg.MaxCycles = req.MaxCycles
	}
	s.start(w, r, jobSpec{
		kind:      runKind,
		digest:    digest,
		kernel:    p.Kernel.Name,
		timeoutMs: req.TimeoutMs,
		wait:      req.Wait,
		work: func(ctx context.Context) (*runResult, any) {
			return runJob(ctx, p, args, cfg)
		},
		flight: f,
		finish: func(res *runResult, err error) {
			// Canceled, deadline and failed outcomes must not linger in
			// the coalescer: finishing with an error forgets the flight
			// immediately (already-attached followers still share res),
			// so the next identical request re-executes instead of
			// replaying a dead result.
			if err == nil && res.state != api.JobDone {
				err = errRunNotShareable
			}
			f.Finish(res, err)
		},
	})
}

// errRunNotShareable marks a flight whose run did not complete: the
// result is still delivered to already-attached followers, but the
// flight must not linger for new joiners.
var errRunNotShareable = errors.New("run did not complete; not shareable")

// serveFollower attaches a job to another request's flight: when the
// leader finishes, the follower's job is filled with the shared result.
func (s *Server) serveFollower(w http.ResponseWriter, r *http.Request, wait bool, f *store.Flight) {
	jctx, cancelCause := context.WithCancelCause(context.Background())
	j := s.newJob("", cancelCause, f, false)
	go func() {
		defer close(j.done)
		select {
		case <-f.Done():
			j.fill(flightResult(f))
		case <-jctx.Done():
			j.markCanceled("canceled by client")
		}
	}()
	answer(w, r, j, wait)
}

// flightResult normalizes a flight outcome into a fillable result: a
// leader that never reached the simulator (compile error, full queue)
// fails every coalesced job the same way. A flight finished with a
// runResult attached shares it regardless of the error — the error only
// controls whether the flight lingers for new joiners.
func flightResult(f *store.Flight) *runResult {
	v, err := f.Result()
	if res, ok := v.(*runResult); ok {
		return res
	}
	if err == nil {
		err = errors.New("internal: flight finished without a result")
	}
	kind := "compile_error"
	switch {
	case errors.Is(err, parallel.ErrQueueFull):
		kind = "busy"
	case isCtxErr(err):
		kind = "canceled"
	}
	return &runResult{state: api.JobFailed, errMsg: err.Error(), errKind: kind}
}

// runJob executes one simulation on a pool worker and renders its
// Paraver bundle; a done run also returns the summary document the
// store keeps beside the bundle.
func runJob(ctx context.Context, p *core.Program, args sim.Args, cfg sim.Config) (*runResult, any) {
	out, err := p.Run(ctx, args, cfg)
	res := &runResult{kernel: p.Kernel.Name}
	if err != nil {
		res.errMsg = err.Error()
		var maxErr *sim.ErrMaxCycles
		var canErr *sim.ErrCanceled
		switch {
		case errors.As(err, &maxErr):
			res.state = api.JobFailed
			res.errKind = "max_cycles"
		case errors.As(err, &canErr):
			res.state = api.JobCanceled
			res.errKind = "canceled"
			if errors.Is(err, context.DeadlineExceeded) {
				res.errKind = "deadline"
			}
		default:
			res.state = api.JobFailed
			res.errKind = "run_error"
		}
		return res, nil
	}
	doc, err := api.NewStoredRun(p, out)
	var files map[string][]byte
	if err == nil {
		files, err = renderArtifact(out)
	}
	if err != nil {
		res.state = api.JobFailed
		res.errMsg = err.Error()
		res.errKind = "run_error"
		return res, nil
	}
	res.state = api.JobDone
	res.summary, res.trace = doc.Summary, doc.Trace
	res.art = &artifact{files: files}
	return res, doc
}

// renderArtifact writes the run's Paraver bundle into memory, using the
// same writers nymblesim streams to disk — so the bytes served (and
// stored) are identical to the CLI's files. Profiling-disabled runs
// produce an empty bundle.
func renderArtifact(out *core.RunOutput) (map[string][]byte, error) {
	if out.Streams == nil {
		return map[string][]byte{}, nil
	}
	st := out.Streams
	files := make(map[string][]byte, 4)
	var prv bytes.Buffer
	if err := st.WritePRV(&prv); err != nil {
		return nil, err
	}
	files[api.TracePRV] = prv.Bytes()
	// BestSpeed matches the on-disk WriteBundleGz path byte for byte.
	var gzBuf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&gzBuf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := gz.Write(prv.Bytes()); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	files[api.TracePRVGz] = gzBuf.Bytes()
	var pcf bytes.Buffer
	if err := st.WritePCF(&pcf); err != nil {
		return nil, err
	}
	files[api.TracePCF] = pcf.Bytes()
	var row bytes.Buffer
	if err := st.WriteROW(&row); err != nil {
		return nil, err
	}
	files[api.TraceROW] = row.Bytes()
	return files, nil
}
