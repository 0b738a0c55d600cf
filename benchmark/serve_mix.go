package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"paravis/internal/api"
	"paravis/internal/server"
	"paravis/internal/store"
	"paravis/internal/workloads"
)

var serveMix = workload{
	name: "serve_mix",
	why:  "operator's view of nymbled under a closed-loop mix of cold runs, warm store hits, trace downloads, vet, perf and coalesced bursts",
	setup: func(seed int64, dir string) (instance, error) {
		st, err := store.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		s := &serveInst{seed: seed, srv: server.New(server.Options{Store: st})}
		s.http = httptest.NewServer(s.srv.Handler())
		s.dotSrc, err = testdata.ReadFile("testdata/dotprod.mc")
		if err != nil {
			return nil, err
		}
		for c := 0; c < serveClients(); c++ {
			s.clients = append(s.clients, s.newClient(c))
		}
		// Warm-up by a client of its own: one request of every class, vet
		// and perf over all six seed units.
		warm := s.newClient(serveClients())
		reqs := []request{{"cold_run", 0}, {"cold_run", 1}, {"warm_hit", 0}, {"warm_buf", 1}, {"trace_get", 0}, {"trace_get", 1}}
		for u := range seedUnits {
			reqs = append(reqs, request{"vet", u}, request{"perf", u})
		}
		for i, r := range reqs {
			if smp := warm.do(r, nil, i); !smp.ok {
				s.close()
				return nil, fmt.Errorf("warm-up %s failed", r.Class)
			}
		}
		if smps := s.burst(nil, -1); !smps[0].ok {
			s.close()
			return nil, fmt.Errorf("warm-up burst failed")
		}
		return s, nil
	},
}

// serveClients is the closed-loop client count: two, or one on a
// single-processor host.
func serveClients() int { return min(2, runtime.GOMAXPROCS(0)) }

// Per round and client: 18 cold runs (12 pi, 6 dotprod with inline
// buffers), 62 warm hits on pi keys, 8 on dotprod keys, 6 trace
// downloads, 3 vet and 3 perf. Two pi keys to one dotprod key keeps each
// class's median inside one mode, and warm_hit above half of all
// requests keeps the overall median inside that class.
const (
	coldPerRound = 18
	roundLen     = 100
)

var roundMix = []struct {
	class string
	n     int
}{{"cold_run", coldPerRound - 2}, {"warm_hit", 62}, {"warm_buf", 8}, {"trace_get", 6}, {"vet", 3}, {"perf", 3}}

// burstRounds close every window: all clients post one fresh key at once.
const burstRounds = 12

// request is one entry of a client's schedule. Key is the key a cold_run
// creates, the earlier key of the same client a warm_hit, warm_buf or
// trace_get repeats, or the seed unit of a vet or perf.
type request struct {
	Class string
	Key   int
}

// keyIsDot says which kernel a client's i-th key runs: every third key
// is a dotprod with inline buffers, the others are pi.
func keyIsDot(key int) bool { return key%3 == 1 }

// scheduler deals one client's requests round by round. It depends on
// the seed and the client only, never on responses: a warm request names
// a key whose cold_run stands earlier in the same schedule.
type scheduler struct {
	rng      *rand.Rand
	pi, dot  []int // keys issued so far, by kernel
	nextKey  int
	nextUnit int
}

func newScheduler(seed int64, client int) *scheduler {
	return &scheduler{rng: rand.New(rand.NewSource(seed*31 + int64(client)))}
}

func (s *scheduler) cold() request {
	k := s.nextKey
	s.nextKey++
	if keyIsDot(k) {
		s.dot = append(s.dot, k)
	} else {
		s.pi = append(s.pi, k)
	}
	return request{"cold_run", k}
}

// round returns the client's next roundLen requests: a pi and a dotprod
// cold run, so that every later class has a key to repeat, then the rest
// of the mix in seeded order.
func (s *scheduler) round() []request {
	var classes []string
	for _, c := range roundMix {
		for i := 0; i < c.n; i++ {
			classes = append(classes, c.class)
		}
	}
	s.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := []request{s.cold(), s.cold()}
	for _, class := range classes {
		switch class {
		case "cold_run":
			out = append(out, s.cold())
		case "warm_hit":
			out = append(out, request{class, s.pi[s.rng.Intn(len(s.pi))]})
		case "warm_buf":
			out = append(out, request{class, s.dot[s.rng.Intn(len(s.dot))]})
		case "trace_get":
			out = append(out, request{class, s.rng.Intn(s.nextKey)})
		default:
			out = append(out, request{class, s.nextUnit % len(seedUnits)})
			s.nextUnit++
		}
	}
	return out
}

// runKey is one /v1/run request and the scalar its summary must hold.
type runKey struct {
	body   []byte
	scalar string
	want   float64
}

// piRun builds a fresh pi key. steps moves in a narrow band so that cold
// latency does not drift; the initial final_sum, which the kernel adds
// its series to, makes the digest fresh.
func piRun(steps int, init float64) runKey {
	body, _ := json.Marshal(api.RunRequest{
		SchemaVersion: api.Version,
		Source:        workloads.PiSource,
		Defines:       workloads.PiDefines(),
		Ints:          map[string]int64{"steps": int64(steps), "threads": 8},
		Floats:        map[string]float64{"step": 1.0 / float64(steps), "final_sum": init},
		Wait:          true,
	})
	return runKey{body: body, scalar: "final_sum", want: init + float64(workloads.PiRefSum(steps, 8))}
}

// coldKey builds key number `key` of a client. The seed and the key
// decide every byte of it.
func (s *serveInst) coldKey(client, key int) runKey {
	k := key*(serveClients()+1) + client // unique over all clients
	tag := float64(s.seed%1024) * 4096
	if !keyIsDot(key) {
		return piRun(102400+64*(k%16), tag+float64(k/16))
	}
	n := 16384 + 32*(k%16)
	rng := rand.New(rand.NewSource(s.seed<<20 + int64(k)))
	x, y := make([]float32, n), make([]float32, n)
	var dot float32
	for i := range x {
		x[i], y[i] = float32(rng.Intn(9))/8, float32(rng.Intn(9))/8
		dot += x[i] * y[i]
	}
	body, _ := json.Marshal(api.RunRequest{
		SchemaVersion: api.Version,
		Source:        string(s.dotSrc),
		Ints:          map[string]int64{"n": int64(n)},
		Floats:        map[string]float64{"result": 0},
		Buffers:       map[string][]float32{"X": x, "Y": y},
		Wait:          true,
	})
	return runKey{body: body, scalar: "result", want: float64(dot)}
}

type serveInst struct {
	seed    int64
	srv     *server.Server
	http    *httptest.Server
	dotSrc  []byte
	clients []*serveClient

	mu      sync.Mutex
	sims    int // simulations the requests so far must have started
	bursts  int
	shared  int // bursts in which a follower shared the leader's run
	refused int
}

// serveClient is one closed-loop client: its schedule, its connection
// and the keys it has completed.
type serveClient struct {
	s     *serveInst
	id    int
	sched *scheduler
	queue []request
	hc    *http.Client
	keys  map[int]*doneKey
}

type doneKey struct {
	runKey
	jobID string
}

func (s *serveInst) newClient(id int) *serveClient {
	return &serveClient{s: s, id: id, sched: newScheduler(s.seed, id), keys: map[int]*doneKey{},
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *serveClient) next() request {
	if len(c.queue) == 0 {
		c.queue = c.sched.round()
	}
	r := c.queue[0]
	c.queue = c.queue[1:]
	return r
}

// call sends one request and reads the whole response; only this is
// timed. A nil body makes it a GET.
func (c *serveClient) call(tr *opTrace, class, path string, body []byte) (resp *http.Response, data []byte, dur time.Duration, err error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.s.http.URL+path, rd)
	if err != nil {
		return nil, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	tr.do("server."+class, func() {
		if resp, err = c.hc.Do(req); err != nil {
			return
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	})
	dur = time.Since(start)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500) {
		c.s.mu.Lock()
		c.s.refused++
		c.s.mu.Unlock()
	}
	return resp, data, dur, err
}

// run posts a /v1/run key and checks status, store marker and result.
func (c *serveClient) run(tr *opTrace, class string, key runKey, markers ...string) (jobID, marker string, dur time.Duration, err error) {
	resp, data, dur, err := c.call(tr, class, "/v1/run", key.body)
	if err != nil {
		return "", "", dur, err
	}
	marker = resp.Header.Get("X-Nymbled-Store")
	var job api.Job
	switch {
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("status %d: %s", resp.StatusCode, data)
	case !slices.Contains(markers, marker):
		err = fmt.Errorf("store marker %q, scheduled %v", marker, markers)
	default:
		err = json.Unmarshal(data, &job)
	}
	if err != nil {
		return "", marker, dur, err
	}
	if job.State != api.JobDone || job.Summary == nil {
		return "", marker, dur, fmt.Errorf("job %s is %s: %s", job.ID, job.State, job.Error)
	}
	if got := job.Summary.ScalarsOut[key.scalar]; math.Abs(got-key.want) > 1e-3*math.Abs(key.want) {
		return "", marker, dur, fmt.Errorf("%s = %g, want %g", key.scalar, got, key.want)
	}
	return job.ID, marker, dur, nil
}

// do carries out one scheduled request. Bodies are built and responses
// checked outside the timed call.
func (c *serveClient) do(r request, tr *opTrace, op int) sample {
	var dur time.Duration
	var err error
	switch r.Class {
	case "cold_run":
		key := &doneKey{runKey: c.s.coldKey(c.id, r.Key)}
		c.s.mu.Lock()
		c.s.sims++
		c.s.mu.Unlock()
		if key.jobID, _, dur, err = c.run(tr, r.Class, key.runKey, "miss"); err == nil {
			c.keys[r.Key] = key
		}
	case "warm_hit", "warm_buf":
		if key := c.keys[r.Key]; key == nil {
			err = fmt.Errorf("key %d was never completed", r.Key)
		} else {
			_, _, dur, err = c.run(tr, r.Class, key.runKey, "hit")
		}
	case "trace_get":
		if key := c.keys[r.Key]; key == nil {
			err = fmt.Errorf("key %d was never completed", r.Key)
		} else {
			var resp *http.Response
			var data []byte
			resp, data, dur, err = c.call(tr, r.Class, "/v1/jobs/"+key.jobID+"/trace/trace.prv.gz", nil)
			if err == nil {
				err = checkTraceGz(resp, data)
			}
		}
	case "vet", "perf":
		u := seedUnits[r.Key]
		var body []byte
		if r.Class == "vet" {
			body, _ = json.Marshal(api.VetRequest{SchemaVersion: api.Version, Name: u.Name, Source: u.Source, Defines: u.Defines})
		} else {
			body, _ = json.Marshal(api.PerfRequest{SchemaVersion: api.Version, Name: u.Name, Source: u.Source, Defines: u.Defines, Params: u.Params})
		}
		var resp *http.Response
		var data []byte
		resp, data, dur, err = c.call(tr, r.Class, "/v1/"+r.Class, body)
		if err == nil {
			err = checkReport(r.Class, resp, data)
		}
	}
	return sample{class: r.Class, op: op, dur: dur, ok: passed("serve_mix", op, err)}
}

func checkTraceGz(resp *http.Response, data []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	prv, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(prv, []byte("#Paraver")) {
		return fmt.Errorf("trace does not start with a #Paraver header")
	}
	return nil
}

// checkReport reads a vet or perf response as far as the check needs:
// the wire structs' diagnostics marshal their severity as a string and
// do not unmarshal back.
func checkReport(class string, resp *http.Response, data []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var rep struct {
		Units []struct {
			Clean  bool            `json:"clean"`
			Report json.RawMessage `json:"report"`
		} `json:"units"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return err
	}
	switch {
	case len(rep.Units) != 1:
		return fmt.Errorf("%s report holds %d units", class, len(rep.Units))
	case class == "vet" && !rep.Units[0].Clean:
		return fmt.Errorf("vet report not clean: %s", data)
	case class == "perf" && len(rep.Units[0].Report) == 0:
		return fmt.Errorf("perf report empty: %s", data)
	}
	return nil
}

// burst has every client post the same fresh key at once. One request
// leads ("miss"); the others share its simulation, coalesced onto the
// flight or, when the leader finished first, hit in the store.
func (s *serveInst) burst(rec *recorder, op int) []sample {
	s.mu.Lock()
	s.sims++
	s.bursts++
	key := piRun(102400, -(float64(s.seed%1024)*4096 + float64(s.bursts)))
	s.mu.Unlock()

	markers := make([]string, len(s.clients))
	out := make([]sample, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := rec.begin(op + i)
			var err error
			var dur time.Duration
			_, markers[i], dur, err = c.run(tr, "burst", key, "miss", "coalesced", "hit")
			tr.end()
			out[i] = sample{class: "burst", op: op + i, dur: dur, ok: passed("serve_mix", op+i, err)}
		}()
	}
	wg.Wait()
	leaders := 0
	for _, m := range markers {
		if m == "miss" {
			leaders++
		}
	}
	if leaders != 1 && out[0].ok {
		out[0].ok = passed("serve_mix", op, fmt.Errorf("burst: %d leaders among %v", leaders, markers))
	}
	if slices.Contains(markers, "coalesced") {
		s.mu.Lock()
		s.shared++
		s.mu.Unlock()
	}
	return out
}

func (s *serveInst) run(w *window) []sample {
	perClient := make([][]sample, len(s.clients))
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A client stops at the first round boundary after the window has
			// expired, so that every run measures whole rounds of the mix.
			for i := 0; i == 0 || !w.expired() || len(c.queue) > 0; i++ {
				op := i*len(s.clients) + ci
				r := c.next()
				tr := w.rec.begin(op)
				start := w.since()
				smp := c.do(r, tr, op)
				tr.end()
				smp.start = start
				perClient[ci] = append(perClient[ci], smp)
				w.boundary()
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, smps := range perClient {
		out = append(out, smps...)
	}
	for b := 0; b < burstRounds; b++ {
		start := w.since()
		for _, smp := range s.burst(w.rec, len(out)) {
			smp.start = start
			out = append(out, smp)
		}
	}
	return out
}

// get fetches a daemon document outside any window.
func (s *serveInst) get(path string) ([]byte, error) {
	resp, err := http.Get(s.http.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func (s *serveInst) report(m *metricSet, un, tr *phase) error {
	p50 := func(class string) float64 { return ms(percentile(un.durs(class), 0.5)) }
	tail := func(name, class string, p float64) {
		if ds := un.durs(class); pickTail(len(ds)) >= p {
			m.setNote(name, ms(percentile(ds, p)), "n=%d", len(ds))
		}
	}
	m.setNote("cold_run_p50_ms", p50("cold_run"), "n=%d", len(un.durs("cold_run")))
	m.setNote("warm_hit_p50_ms", p50("warm_hit"), "n=%d", len(un.durs("warm_hit")))
	tail("server.cold_run_p90_ms", "cold_run", 0.9)
	tail("server.warm_hit_p99_ms", "warm_hit", 0.99)
	for _, class := range []string{"warm_buf", "trace_get", "vet", "perf", "burst"} {
		m.setNote("server."+class+"_p50_ms", p50(class), "n=%d", len(un.durs(class)))
	}
	m.setNote("server.coalesced_frac", ratio(float64(s.shared), float64(s.bursts)), "of %d bursts", s.bursts)
	m.set("server.refused", float64(s.refused))

	data, err := s.get("/healthz")
	if err != nil {
		return err
	}
	var h api.Health
	if err := json.Unmarshal(data, &h); err != nil || h.Store == nil {
		return fmt.Errorf("healthz: %v: %s", err, data)
	}
	cc := h.CompileCache
	m.setNote("core.cache_hit_ratio", ratio(float64(cc.Hits), float64(cc.Hits+cc.Misses)), "of %d builds", cc.Hits+cc.Misses)
	m.setNote("store.hit_ratio", ratio(float64(h.Store.Hits), float64(h.Store.Hits+h.Store.Misses)), "of %d lookups", h.Store.Hits+h.Store.Misses)
	m.set("store.puts", float64(h.Store.Puts))

	if data, err = s.get("/metrics"); err != nil {
		return err
	}
	started := -1
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "nymbled_sims_started_total "); ok {
			started, _ = strconv.Atoi(v)
		}
	}
	m.setNote("server.sims_started", float64(started), "%d cold runs and bursts sent", s.sims)
	if started != s.sims {
		return fmt.Errorf("daemon started %d simulations for %d cold runs and bursts", started, s.sims)
	}
	return nil
}

func (s *serveInst) close() error {
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
