package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"paravis/internal/api"
	"paravis/internal/core"
	"paravis/internal/mem"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Workers: workers})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gemmRunRequest(dim int) api.RunRequest {
	a, b := workloads.GEMMInputs(dim)
	return api.RunRequest{
		SchemaVersion: api.Version,
		Source:        workloads.GEMMSource(workloads.GEMMNaive),
		Defines:       workloads.GEMMDefines(workloads.GEMMNaive),
		Ints:          map[string]int64{"DIM": int64(dim)},
		Buffers:       map[string][]float32{"A": a, "B": b},
	}
}

// piRunRequest builds a deliberately long simulation for the
// cancellation tests: several hundred million pi iterations take
// minutes uncancelled, but the engine notices a dead context within a
// few thousand loop iterations.
func piRunRequest(steps int64) api.RunRequest {
	return api.RunRequest{
		SchemaVersion: api.Version,
		Source:        workloads.PiSource,
		Defines:       workloads.PiDefines(),
		Ints:          map[string]int64{"steps": steps, "threads": 8},
		Floats:        map[string]float64{"step": 1.0 / float64(steps), "final_sum": 0},
		MaxCycles:     1 << 62,
	}
}

func pollJob(t *testing.T, base, id string, want string, timeout time.Duration) api.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc api.Job
		if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.State == want {
			return doc
		}
		if doc.State == api.JobFailed || doc.State == api.JobCanceled || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (want %s), error %q", id, doc.State, want, doc.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunTraceByteIdenticalToCLI is the end-to-end acceptance test:
// POST /v1/run, poll the job, download the bundle, and compare every
// file byte-for-byte against what nymblesim's write path puts on disk
// for the same kernel and arguments.
func TestRunTraceByteIdenticalToCLI(t *testing.T) {
	_, ts := newTestServer(t, 2)
	dim := 16

	resp := postJSON(t, ts.URL+"/v1/run", gemmRunRequest(dim))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/run = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var doc api.Job
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != api.JobQueued || doc.ID == "" {
		t.Fatalf("unexpected job doc: %+v", doc)
	}
	done := pollJob(t, ts.URL, doc.ID, api.JobDone, 2*time.Minute)
	if done.Summary == nil || done.Summary.Cycles <= 0 {
		t.Fatalf("no summary: %+v", done)
	}
	if len(done.Trace) == 0 {
		t.Fatal("no trace files listed")
	}

	// Reference run through the library exactly as nymblesim does it.
	req := gemmRunRequest(dim)
	p, err := core.Build(context.Background(), req.Source, core.BuildOptions{Defines: req.Defines})
	if err != nil {
		t.Fatal(err)
	}
	args, err := p.SizedArgs(req.Ints, req.Floats)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range req.Buffers {
		copyFloats(args.Buffers[name], data)
	}
	out, err := p.Run(context.Background(), args, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := out.WriteTrace(dir, "ref"); err != nil {
		t.Fatal(err)
	}
	if _, err := out.WriteTraceGz(dir, "refgz"); err != nil {
		t.Fatal(err)
	}

	for served, onDisk := range map[string]string{
		"trace.prv":    "ref.prv",
		"trace.pcf":    "ref.pcf",
		"trace.row":    "ref.row",
		"trace.prv.gz": "refgz.prv.gz",
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace/" + served)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", served, resp.StatusCode)
		}
		got := readAll(t, resp)
		want, err := os.ReadFile(filepath.Join(dir, onDisk))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: served %d bytes differ from nymblesim's %d on-disk bytes", served, len(got), len(want))
		}
	}
	if done.Summary.ScalarsOut != nil {
		t.Logf("scalars: %v", done.Summary.ScalarsOut)
	}
}

func copyFloats(buf *sim.Buffer, data []float32) {
	copy(buf.Words, mem.FloatsToWords(data))
}

// TestAllSeedWorkloadsTraceByteIdentical is the acceptance sweep: for
// every seed workload at its canonical parameters, the daemon's
// trace.prv download must match the bundle nymblesim's write path puts
// on disk, byte for byte. Buffers are zero-filled on both sides,
// exactly as a nymblesim invocation without @file arguments.
func TestAllSeedWorkloadsTraceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all seed workloads")
	}
	_, ts := newTestServer(t, 2)
	for _, u := range workloads.Units() {
		t.Run(u.Name, func(t *testing.T) {
			req := api.RunRequest{
				SchemaVersion: api.Version,
				Source:        u.Source,
				Defines:       u.Defines,
				Ints:          u.Params,
				Wait:          true,
			}
			if u.Name == "pi" {
				req.Floats = map[string]float64{
					"step":      1.0 / float64(u.Params["steps"]),
					"final_sum": 0,
				}
			}
			resp := postJSON(t, ts.URL+"/v1/run", req)
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/run = %d: %s", resp.StatusCode, body)
			}
			var doc api.Job
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.State != api.JobDone {
				t.Fatalf("state = %s, error %q", doc.State, doc.Error)
			}

			p, err := core.Build(context.Background(), u.Source, core.BuildOptions{Defines: u.Defines})
			if err != nil {
				t.Fatal(err)
			}
			args, err := p.SizedArgs(req.Ints, req.Floats)
			if err != nil {
				t.Fatal(err)
			}
			out, err := p.Run(context.Background(), args, sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := out.WriteTrace(dir, "ref"); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dir, "ref.prv"))
			if err != nil {
				t.Fatal(err)
			}
			traceResp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace/trace.prv")
			if err != nil {
				t.Fatal(err)
			}
			got := readAll(t, traceResp)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: served .prv (%d bytes) differs from nymblesim's (%d bytes)",
					u.Name, len(got), len(want))
			}
		})
	}
}

// longRun is a run that takes minutes uncanceled: pi at half a billion
// steps and more, whose simulation notices a dead context within a few
// thousand loop iterations. Each n is a digest of its own, so long runs
// of different n never coalesce.
func longRun(n, timeoutMs int64) api.RunRequest {
	req := piRunRequest(500_000_000 + 64*n)
	req.TimeoutMs = timeoutMs
	return req
}

// postJob POSTs a job asynchronously and returns its id.
func postJob(t *testing.T, url string, body any) string {
	t.Helper()
	resp := postJSON(t, url, body)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, data)
	}
	var doc api.Job
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.ID
}

// waitNoLeak waits until no job holds a worker and the goroutine count
// is back at its baseline. Idle keep-alive connections hold their own
// goroutines, so they are reaped before counting.
func waitNoLeak(t *testing.T, s *Server, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for s.pool.InFlight() != 0 || runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("leak: inFlight=%d goroutines=%d (baseline %d)",
				s.pool.InFlight(), runtime.NumGoroutine(), before)
		}
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelMidSimFreesWorkerSlot starts a run that would take minutes
// on the only worker, ends it by DELETE or by its timeout_ms, and then
// proves the slot is free by completing a second run. Both cases, and a
// Shutdown with two runs in flight, must leave no job in flight and leak
// no goroutines.
func TestCancelMidSimFreesWorkerSlot(t *testing.T) {
	for _, end := range []string{"delete", "timeout"} {
		t.Run("run/"+end, func(t *testing.T) {
			s, ts := newTestServer(t, 1)
			before := runtime.NumGoroutine()

			var timeoutMs int64
			if end == "timeout" {
				timeoutMs = 300
			}
			id := postJob(t, ts.URL+"/v1/run", longRun(0, timeoutMs))
			if end == "timeout" {
				if doc := pollJob(t, ts.URL, id, api.JobCanceled, time.Minute); doc.ErrorKind != "deadline" {
					t.Fatalf("after timeout_ms, error kind = %q (%s)", doc.ErrorKind, doc.Error)
				}
			} else {
				pollJob(t, ts.URL, id, api.JobRunning, time.Minute)
				delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
				delResp, err := http.DefaultClient.Do(delReq)
				if err != nil {
					t.Fatal(err)
				}
				var canceled api.Job
				if err := json.Unmarshal(readAll(t, delResp), &canceled); err != nil {
					t.Fatal(err)
				}
				if canceled.State != api.JobCanceled {
					t.Fatalf("after DELETE, state = %s", canceled.State)
				}
			}

			// The single worker must come free: a small job has to finish.
			small := gemmRunRequest(16)
			small.Wait = true
			resp := postJSON(t, ts.URL+"/v1/run", small)
			data := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("follow-up job = %d: %s", resp.StatusCode, data)
			}
			var followUp api.Job
			if err := json.Unmarshal(data, &followUp); err != nil {
				t.Fatal(err)
			}
			if followUp.State != api.JobDone {
				t.Fatalf("follow-up state = %s", followUp.State)
			}
			waitNoLeak(t, s, before)
		})
	}

	t.Run("shutdown", func(t *testing.T) {
		http.DefaultClient.CloseIdleConnections()
		before := runtime.NumGoroutine()
		s := New(Options{Workers: 2})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var ids []string
		for n := range int64(2) {
			ids = append(ids, postJob(t, ts.URL+"/v1/run", longRun(n, 0)))
		}
		for _, id := range ids {
			pollJob(t, ts.URL, id, api.JobRunning, time.Minute)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown did not drain: %v", err)
		}
		for _, id := range ids {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var doc api.Job
			if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
				t.Fatal(err)
			}
			if doc.State != api.JobCanceled {
				t.Errorf("job %s after shutdown: state %s", id, doc.State)
			}
		}
		ts.Close()
		waitNoLeak(t, s, before)
	})
}

// TestWaitModeMaxCyclesMapsTo422 checks the typed *sim.ErrMaxCycles
// surfaces as a client error, not a 500.
func TestWaitModeMaxCyclesMapsTo422(t *testing.T) {
	_, ts := newTestServer(t, 1)
	req := gemmRunRequest(16)
	req.MaxCycles = 100 // absurdly small: guaranteed overrun
	req.Wait = true
	resp := postJSON(t, ts.URL+"/v1/run", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
	}
	var doc api.Job
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ErrorKind != "max_cycles" || doc.State != api.JobFailed {
		t.Fatalf("doc = %+v", doc)
	}
	if !strings.Contains(doc.Error, "MaxCycles") {
		t.Errorf("error %q does not mention MaxCycles", doc.Error)
	}
}

// TestCompileCacheHitIsByteIdentical sends the same compile request
// twice: the second must be a cache hit (header) with an identical
// body, and an equivalent request with reordered defines must hit too.
func TestCompileCacheHitIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, 1)
	req := api.CompileRequest{
		SchemaVersion: api.Version,
		Source:        workloads.GEMMSource(workloads.GEMMNaive),
		Defines:       workloads.GEMMDefines(workloads.GEMMNaive),
	}
	first := postJSON(t, ts.URL+"/v1/compile", req)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first = %d", first.StatusCode)
	}
	if got := first.Header.Get("X-Nymbled-Cache"); got != "miss" {
		t.Errorf("first cache header = %q, want miss", got)
	}
	firstBody := readAll(t, first)

	second := postJSON(t, ts.URL+"/v1/compile", req)
	if got := second.Header.Get("X-Nymbled-Cache"); got != "hit" {
		t.Errorf("second cache header = %q, want hit", got)
	}
	secondBody := readAll(t, second)
	if !bytes.Equal(firstBody, secondBody) {
		t.Error("cache hit produced different bytes")
	}

	var rep api.CompileReport
	if err := json.Unmarshal(firstBody, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != api.Version || rep.Kernel == "" {
		t.Fatalf("report = %+v", rep)
	}
}

// TestConcurrentMixedRequests hammers every endpoint at once; run with
// -race this is the data-race acceptance test for the shared cache,
// pool, job registry and metrics.
func TestConcurrentMixedRequests(t *testing.T) {
	_, ts := newTestServer(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	post := func(path string, body any, wantStatus int) {
		defer wg.Done()
		resp := postJSON(t, ts.URL+path, body)
		b := readAll(t, resp)
		if resp.StatusCode != wantStatus {
			errs <- fmt.Errorf("%s = %d: %s", path, resp.StatusCode, b)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(4)
		go post("/v1/compile", api.CompileRequest{
			SchemaVersion: api.Version,
			Source:        workloads.GEMMSource(workloads.GEMMNaive),
			Defines:       workloads.GEMMDefines(workloads.GEMMNaive),
		}, http.StatusOK)
		go post("/v1/vet", api.VetRequest{
			SchemaVersion: api.Version,
			Source:        workloads.PiSource,
			Defines:       workloads.PiDefines(),
		}, http.StatusOK)
		go post("/v1/perf", api.PerfRequest{
			SchemaVersion: api.Version,
			Source:        workloads.GEMMSource(workloads.GEMMNaive),
			Defines:       workloads.GEMMDefines(workloads.GEMMNaive),
			Params:        map[string]int64{"DIM": 16},
		}, http.StatusOK)
		runReq := gemmRunRequest(16)
		runReq.Wait = true
		go post("/v1/run", runReq, http.StatusOK)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				errs <- err
				return
			}
			readAll(t, resp)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, resp))
	for _, want := range []string{
		"nymbled_requests_total{route=\"compile\"}",
		"nymbled_compile_cache_hits_total",
		"nymbled_queue_depth",
		"nymbled_inflight_sims",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestVetAndPerfMatchCLISchemas checks the daemon's responses carry the
// versioned envelope the CLIs print.
func TestVetAndPerfMatchCLISchemas(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp := postJSON(t, ts.URL+"/v1/vet", api.VetRequest{
		SchemaVersion: api.Version,
		Name:          "pi.mc",
		Source:        workloads.PiSource,
		Defines:       workloads.PiDefines(),
	})
	var vr api.VetReport
	if err := json.Unmarshal(readAll(t, resp), &vr); err != nil {
		t.Fatal(err)
	}
	if vr.SchemaVersion != api.Version || len(vr.Units) != 1 || vr.Units[0].Name != "pi.mc" {
		t.Fatalf("vet report = %+v", vr)
	}

	resp = postJSON(t, ts.URL+"/v1/perf", api.PerfRequest{
		SchemaVersion: api.Version,
		Source:        "void broken(", // parse error must not 500
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perf with bad source = %d", resp.StatusCode)
	}
	var pr api.PerfReport
	if err := json.Unmarshal(readAll(t, resp), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Units) != 1 || pr.Units[0].Error == "" {
		t.Fatalf("perf report = %+v", pr)
	}
}

// TestBadRequestsAndErrors covers the error envelope paths.
func TestBadRequestsAndErrors(t *testing.T) {
	_, ts := newTestServer(t, 1)

	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}
	readAll(t, resp)

	resp = postJSON(t, ts.URL+"/v1/compile", api.CompileRequest{
		SchemaVersion: api.Version,
		Source:        "void f() { int x = ; }",
	})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("compile error = %d: %s", resp.StatusCode, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "compile_error" {
		t.Errorf("kind = %q", e.Kind)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d", resp.StatusCode)
	}
	readAll(t, resp)

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	readAll(t, resp)

	// Job POSTs read one JSON value of at most maxBodyBytes: a larger body
	// is 413 too_large, data after the value is 400 bad_request, and
	// neither creates a job. There is no /v1/optimize: the mux answers
	// 404 with no error document.
	prefix, suffix := `{"version":1,"source":"`, `"}`
	huge := prefix + strings.Repeat("a", maxBodyBytes+1-len(prefix)-len(suffix)) + suffix
	runBody, _ := json.Marshal(gemmRunRequest(16))
	for _, tc := range []struct {
		path, body string
		status     int
		kind       string
	}{
		{"/v1/run", huge, http.StatusRequestEntityTooLarge, "too_large"},
		{"/v1/run", string(runBody) + "{}", http.StatusBadRequest, "bad_request"},
		{"/v1/run", string(runBody) + " x", http.StatusBadRequest, "bad_request"},
		{"/v1/optimize", string(runBody), http.StatusNotFound, ""},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil && tc.kind != "" {
			t.Fatalf("%s (%d bytes): %v: %.200s", tc.path, len(tc.body), err, body)
		}
		if resp.StatusCode != tc.status || e.Kind != tc.kind {
			t.Errorf("%s (%d bytes) = %d %q, want %d %q: %.200s",
				tc.path, len(tc.body), resp.StatusCode, e.Kind, tc.status, tc.kind, e.Err)
		}
	}
	if got := metricValue(t, ts.URL, "nymbled_jobs_total"); got != 0 {
		t.Errorf("rejected bodies created %d jobs", got)
	}
}

// TestShutdownDrainsAndRejects checks graceful shutdown: jobs in
// flight are canceled, new runs are refused, healthz flips.
func TestShutdownDrainsAndRejects(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/run", piRunRequest(500_000_000))
	var doc api.Job
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, doc.ID, api.JobRunning, time.Minute)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}

	resp = postJSON(t, ts.URL+"/v1/run", gemmRunRequest(16))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run after shutdown = %d: %s", resp.StatusCode, body)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown = %d", hz.StatusCode)
	}
	readAll(t, hz)
}
