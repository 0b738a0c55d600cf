package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"paravis/internal/api"
	"paravis/internal/autotune"
	"paravis/internal/workloads"
)

// gemmOptimizeRequest is a small, fast search: naive GEMM at DIM=16
// with a tight simulator budget.
func gemmOptimizeRequest(budget, rounds int) api.OptimizeRequest {
	return api.OptimizeRequest{
		SchemaVersion: api.Version,
		Name:          "gemm",
		Source:        workloads.GEMMSource(workloads.GEMMNaive),
		Defines:       workloads.GEMMDefines(workloads.GEMMNaive),
		Params:        map[string]int64{"DIM": 16},
		Budget:        budget,
		MaxRounds:     rounds,
	}
}

// TestOptimizeWaitByteIdenticalToCLI is the acceptance test for the
// optimize endpoint: a synchronous POST /v1/optimize must finish done
// with the search report inline, and the optimize-report.json artifact
// must be byte-identical to nymbleopt -json for the same input (same
// engine, same defaults, same encoder).
func TestOptimizeWaitByteIdenticalToCLI(t *testing.T) {
	_, ts := newTestServer(t, 2)
	req := gemmOptimizeRequest(4, 2)
	req.Wait = true

	entries := compileCacheEntries(t, ts.URL)
	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/optimize = %d: %s", resp.StatusCode, body)
	}
	// The search and its perf artifacts build outside the compile cache,
	// which never evicts: a finished job must leave no program pinned.
	if after := compileCacheEntries(t, ts.URL); after != entries {
		t.Errorf("compile cache entries %d -> %d across one optimize job", entries, after)
	}
	var doc api.Job
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != api.JobDone {
		t.Fatalf("state = %s, error %q", doc.State, doc.Error)
	}
	if doc.Optimize == nil {
		t.Fatal("done job has no optimize report")
	}
	if doc.Optimize.BaselineCycles <= 0 || len(doc.Optimize.Candidates) == 0 {
		t.Fatalf("degenerate report: %+v", doc.Optimize)
	}
	if len(doc.Artifacts) == 0 {
		t.Fatal("done job lists no artifacts")
	}

	// The reference: the exact computation nymbleopt -json performs.
	res, err := autotune.Optimize(context.Background(), req.Name, req.Source, autotune.Options{
		Defines:   req.Defines,
		Params:    req.Params,
		Budget:    autotune.Budget{Candidates: req.Budget},
		MaxRounds: req.MaxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := api.Encode(&want, api.OptimizeReport{
		SchemaVersion: api.Version,
		Units:         []api.OptimizeUnit{api.NewOptimizeUnit(req.Name, res, nil)},
	}); err != nil {
		t.Fatal(err)
	}

	artResp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/artifacts/optimize-report.json")
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, artResp)
	if artResp.StatusCode != http.StatusOK {
		t.Fatalf("GET optimize-report.json = %d: %s", artResp.StatusCode, got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("optimize-report.json (%d bytes) differs from nymbleopt -json (%d bytes)\n got: %s\nwant: %s",
			len(got), want.Len(), got, want.Bytes())
	}

	// The remaining artifacts must download and be well-formed.
	for _, name := range doc.Artifacts {
		r, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		data := readAll(t, r)
		if r.StatusCode != http.StatusOK || len(data) == 0 {
			t.Errorf("artifact %s: status %d, %d bytes", name, r.StatusCode, len(data))
		}
	}
	if doc.Optimize.Winner != "" {
		found := false
		for _, name := range doc.Artifacts {
			if name == "optimized.mc" {
				found = true
			}
		}
		if !found {
			t.Error("search found a winner but optimized.mc is not an artifact")
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/artifacts/before-perf.json")
		if err != nil {
			t.Fatal(err)
		}
		var perf api.PerfReport
		if err := json.Unmarshal(readAll(t, r), &perf); err != nil {
			t.Fatalf("before-perf.json is not a perf report: %v", err)
		}
		if perf.SchemaVersion != api.Version || len(perf.Units) != 1 {
			t.Fatalf("before-perf report = %+v", perf)
		}
	}

	// Unknown artifact names are 404, not 500.
	r404, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/artifacts/nope.json")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r404)
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact = %d, want 404", r404.StatusCode)
	}
}

// compileCacheEntries reads the compile cache's entry count off /healthz.
func compileCacheEntries(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var doc api.Health
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.CompileCache.Entries
}

// TestOptimizeAsyncPollAndStoreHit runs the same search twice against a
// store-backed daemon: the first async job computes and persists it,
// the second POST must answer done immediately from disk with the same
// report.
func TestOptimizeAsyncPollAndStoreHit(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), Options{Workers: 2})
	req := gemmOptimizeRequest(4, 2)

	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/optimize = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Nymbled-Store"); got != "miss" {
		t.Errorf("first store header = %q, want miss", got)
	}
	if resp.Header.Get("X-Nymbled-Run-Digest") == "" {
		t.Error("no run digest header")
	}
	var doc api.Job
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	first := pollJob(t, ts.URL, doc.ID, api.JobDone, 2*time.Minute)
	if first.Optimize == nil {
		t.Fatal("first job has no optimize report")
	}

	resp2 := postJSON(t, ts.URL+"/v1/optimize", req)
	body2 := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Nymbled-Store"); got != "hit" {
		t.Errorf("second store header = %q, want hit", got)
	}
	var warm api.Job
	if err := json.Unmarshal(body2, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.State != api.JobDone || warm.Optimize == nil {
		t.Fatalf("warm job = %+v", warm)
	}
	a, _ := json.Marshal(first.Optimize)
	b, _ := json.Marshal(warm.Optimize)
	if !bytes.Equal(a, b) {
		t.Errorf("stored optimize unit differs from computed one\n got: %s\nwant: %s", b, a)
	}

	// The warm job serves the persisted artifacts from disk.
	art, err := http.Get(ts.URL + "/v1/jobs/" + warm.ID + "/artifacts/optimize-report.json")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, art)
	if art.StatusCode != http.StatusOK || len(data) == 0 {
		t.Fatalf("warm artifact = %d, %d bytes", art.StatusCode, len(data))
	}
}

// TestOptimizeCancelMidSearch cancels a search over the API mid-flight
// and checks the job lands canceled, not failed.
func TestOptimizeCancelMidSearch(t *testing.T) {
	_, ts := newTestServer(t, 1)
	// The pi baseline at half a billion steps runs for minutes; the
	// DELETE must kill it within the polling budget.
	req := api.OptimizeRequest{
		SchemaVersion: api.Version,
		Name:          "pi",
		Source:        workloads.PiSource,
		Defines:       workloads.PiDefines(),
		Params:        map[string]int64{"steps": 500_000_000, "threads": 8},
		Floats:        map[string]float64{"step": 1.0 / 500_000_000, "final_sum": 0},
		Budget:        2,
		MaxRounds:     1,
	}
	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var doc api.Job
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, doc.ID, api.JobRunning, time.Minute)

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+doc.ID, nil)
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

	// The worker slot must come free for a small follow-up search.
	small := gemmOptimizeRequest(2, 1)
	small.Wait = true
	resp = postJSON(t, ts.URL+"/v1/optimize", small)
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up = %d: %s", resp.StatusCode, body)
	}
	var followUp api.Job
	if err := json.Unmarshal(body, &followUp); err != nil {
		t.Fatal(err)
	}
	if followUp.State != api.JobDone {
		t.Fatalf("follow-up state = %s, error %q", followUp.State, followUp.Error)
	}
}

// TestOptimizeCompileErrorFailsJob checks a kernel that does not parse
// fails the job with a compile_error kind rather than wedging it.
func TestOptimizeCompileErrorFailsJob(t *testing.T) {
	_, ts := newTestServer(t, 1)
	req := api.OptimizeRequest{
		SchemaVersion: api.Version,
		Source:        "void broken(",
		Wait:          true,
	}
	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var doc api.Job
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != api.JobFailed || doc.ErrorKind != "compile_error" {
		t.Fatalf("doc = %+v", doc)
	}
}

// TestOptimizeDeadlineLeavesNoStoreEntry: timeout_ms is not part of the
// request digest, so whatever a timed-out search persisted would answer
// every later identical request. A search whose deadline lands mid-round
// must end canceled with kind deadline — not done with the interrupted
// round's candidates marked compile-error and a winner elected from the
// rest — and must leave nothing in the store. The timeouts span the
// static and the simulation tiers of the DIM=32 search's early rounds;
// a machine fast enough to finish inside one must return the full report.
func TestOptimizeDeadlineLeavesNoStoreEntry(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir(), Options{Workers: 2})
	for i, timeout := range []int64{60, 150, 400} {
		req := gemmOptimizeRequest(32-i, 0) // a digest of its own per timeout
		req.Params = map[string]int64{"DIM": 32}
		req.Wait = true
		req.TimeoutMs = timeout

		resp := postJSON(t, ts.URL+"/v1/optimize", req)
		body := readAll(t, resp)
		var doc api.Job
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("timeout %d ms: %v: %s", timeout, err, body)
		}
		digest := resp.Header.Get("X-Nymbled-Run-Digest")
		if doc.State == api.JobDone {
			res, err := autotune.Optimize(context.Background(), req.Name, req.Source, autotune.Options{
				Defines: req.Defines,
				Params:  req.Params,
				Budget:  autotune.Budget{Candidates: req.Budget},
			})
			if err != nil {
				t.Fatal(err)
			}
			want := api.NewOptimizeUnit(req.Name, res, nil)
			gotJSON, _ := json.Marshal(doc.Optimize)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("timeout %d ms: job done with a report that is not the full search's: winner %q after %d sims, want %q after %d",
					timeout, doc.Optimize.Winner, doc.Optimize.SimsRun, want.Winner, want.SimsRun)
			}
			continue
		}
		if doc.State != api.JobCanceled || doc.ErrorKind != "deadline" {
			t.Errorf("timeout %d ms: state %s kind %q (%s), want canceled/deadline", timeout, doc.State, doc.ErrorKind, doc.Error)
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("timeout %d ms: status %d, want 504", timeout, resp.StatusCode)
		}
		if ent, ok := s.cfg.Store.Get(digest); ok {
			if _, err := ent.ReadFile(fileOptDocument); err == nil {
				t.Errorf("timeout %d ms: the timed-out search left %s in the store", timeout, fileOptDocument)
			}
		}
	}
}
