package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPickTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 2, StartNs: 20, EndNs: 30},  // nested in 2
		{ID: 4, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps 2 by 10
		{ID: 5, Parent: 1, StartNs: 35, EndNs: 50},  // inside 4
		{ID: 6, Parent: 1, StartNs: 90, EndNs: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	// Children of 1 cover [10,60) and [90,100): 60 of its 100 ns.
	want := map[int]int64{1: 40, 2: 20, 3: 10, 4: 30, 5: 15, 6: 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func testServeInst(t *testing.T, seed int64) *serveInst {
	src, err := testdata.ReadFile("testdata/dotprod.mc")
	if err != nil {
		t.Fatal(err)
	}
	return &serveInst{seed: seed, dotSrc: src}
}

// dealSchedule deals n rounds of one client and the bodies of its cold runs.
func dealSchedule(t *testing.T, seed int64, client, rounds int) ([]request, [][]byte) {
	s, sched := testServeInst(t, seed), newScheduler(seed, client)
	var reqs []request
	var bodies [][]byte
	for r := 0; r < rounds; r++ {
		round := sched.round()
		if len(round) != roundLen {
			t.Fatalf("round holds %d requests, want %d", len(round), roundLen)
		}
		for _, rq := range round {
			if rq.Class == "cold_run" {
				bodies = append(bodies, s.coldKey(client, rq.Key).body)
			}
		}
		reqs = append(reqs, round...)
	}
	return reqs, bodies
}

func TestServeScheduleIsSeeded(t *testing.T) {
	reqs, bodies := dealSchedule(t, 7, 0, 3)
	again, bodiesAgain := dealSchedule(t, 7, 0, 3)
	if !reflect.DeepEqual(reqs, again) || !reflect.DeepEqual(bodies, bodiesAgain) {
		t.Error("same seed, same client: schedule or inputs differ")
	}
	seen := map[string]bool{}
	for _, b := range bodies {
		seen[string(b)] = true
	}
	if len(seen) != 3*coldPerRound {
		t.Errorf("%d distinct cold keys in 3 rounds, want %d", len(seen), 3*coldPerRound)
	}
	for _, other := range []struct {
		seed   int64
		client int
	}{{8, 0}, {7, 1}} {
		_, bs := dealSchedule(t, other.seed, other.client, 3)
		for _, b := range bs {
			if seen[string(b)] {
				t.Fatalf("seed %d client %d repeats a key of seed 7 client 0", other.seed, other.client)
			}
		}
	}

	// A client repeats only keys whose cold run stands earlier in its own
	// schedule, and a warm request goes to the kernel its class names.
	issued := map[int]bool{}
	for i, rq := range reqs {
		switch rq.Class {
		case "cold_run":
			issued[rq.Key] = true
		case "warm_hit", "warm_buf", "trace_get":
			if !issued[rq.Key] {
				t.Fatalf("request %d: %s of key %d before its cold run", i, rq.Class, rq.Key)
			}
			if rq.Class != "trace_get" && keyIsDot(rq.Key) != (rq.Class == "warm_buf") {
				t.Fatalf("request %d: %s of key %d, the other kernel's", i, rq.Class, rq.Key)
			}
		}
	}
}

func TestManifestMatchesRunner(t *testing.T) {
	mf, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(mf.Workloads) > 8 || len(mf.EndToEnd) > 16 || len(mf.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: over the limits 8/16/128",
			len(mf.Workloads), len(mf.EndToEnd), len(mf.PerLayer))
	}

	var declared, emitted []string
	for _, w := range mf.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	for _, w := range workloadList {
		emitted = append(emitted, w.name+": "+w.why)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(declared, emitted) {
		t.Errorf("workloads differ:\nBENCHMARK.json %q\nrunner         %q", declared, emitted)
	}

	used := map[string]bool{}
	compare := func(kind string, mms []manifestMetric, defs []metricDef) {
		var a, b []metricDef
		for _, mm := range mms {
			a = append(a, metricDef{mm.Name, mm.Unit})
			if !nameRE.MatchString(mm.Name) || used[mm.Name] {
				t.Errorf("%s metric %q: malformed or used twice", kind, mm.Name)
			}
			used[mm.Name] = true
			if mm.Better != "lower" && mm.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, mm.Name, mm.Better)
			}
			if mm.Bound < 0 || mm.Bound > 0.25 {
				t.Errorf("%s metric %s: bound %v outside [0, 0.25]", kind, mm.Name, mm.Bound)
			}
		}
		b = append(b, defs...)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nrunner         %v", kind, a, b)
		}
	}
	compare("end-to-end", mf.EndToEnd, endToEnd)
	compare("per-layer", mf.PerLayer, perLayer)
	for _, w := range workloadList {
		if !nameRE.MatchString(w.name) || used[w.name] {
			t.Errorf("workload name %q: malformed or used twice", w.name)
		}
		used[w.name] = true
	}

	var setup *manifestMetric
	for i := range mf.EndToEnd {
		if mf.EndToEnd[i].Name == "setup_s" {
			setup = &mf.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
}

// The benchmark binds only to surface the roadmap keeps. What the
// deletion round removes or merges must not appear in its sources.
func TestStableSurfaceOnly(t *testing.T) {
	forbidden := []*regexp.Regexp{
		regexp.MustCompile(`\bInterp\b`),                                                // sim.Config.Interp
		regexp.MustCompile(`\bparaver\.Trace\b`),                                        // the materialized trace
		regexp.MustCompile(`\.Trace\b`),                                                 // RunOutput.Trace, StreamTrace.Trace()
		regexp.MustCompile(`"paravis/internal/(mem|profile|absint|depend|hwsem|area)"`), // internals reached only through their callers
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range bytes.Split(src, []byte("\n")) {
			for _, re := range forbidden {
				if re.Match(line) {
					t.Errorf("%s:%d references %s: %s", f, n+1, re, bytes.TrimSpace(line))
				}
			}
		}
	}
}
