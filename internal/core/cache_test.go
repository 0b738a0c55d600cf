package core

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"

	"paravis/internal/workloads"
)

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	src := workloads.GEMMSource(workloads.GEMMNaive)
	opts := BuildOptions{Defines: workloads.GEMMDefines(workloads.GEMMNaive)}

	const n = 8
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.Build(context.Background(), src, opts)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a different *Program: compile was not single-flighted", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

func TestCacheHitSharesSchedule(t *testing.T) {
	c := NewCache()
	src := workloads.PiSource
	opts := BuildOptions{Defines: workloads.PiDefines()}
	a, hitA, err := c.Build(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, hitB, err := c.Build(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hitA || !hitB {
		t.Errorf("hit flags = %v, %v; want false, true", hitA, hitB)
	}
	if a != b || a.Sched != b.Sched {
		t.Error("cache hit returned a different program/schedule")
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	src := "void f() {}"
	// Same defines inserted in different orders must produce one key.
	d1 := map[string]string{}
	d1["A"] = "1"
	d1["B"] = "2"
	d1["C"] = "3"
	d2 := map[string]string{}
	d2["C"] = "3"
	d2["A"] = "1"
	d2["B"] = "2"
	if Key(src, BuildOptions{Defines: d1}) != Key(src, BuildOptions{Defines: d2}) {
		t.Error("define insertion order changed the key")
	}
	if Key(src, BuildOptions{Defines: d1}) == Key(src, BuildOptions{Defines: map[string]string{"A": "1", "B": "2"}}) {
		t.Error("dropping a define did not change the key")
	}
	if Key(src, BuildOptions{}) == Key(src+" ", BuildOptions{}) {
		t.Error("source change did not change the key")
	}
	if Key(src, BuildOptions{}) == Key(src, BuildOptions{VectorLanes: 8}) {
		t.Error("vector-lane override did not change the key")
	}
	// Length-prefixing must keep ("ab","c") distinct from ("a","bc").
	if Key(src, BuildOptions{Defines: map[string]string{"ab": "c"}}) ==
		Key(src, BuildOptions{Defines: map[string]string{"a": "bc"}}) {
		t.Error("key serialization is ambiguous across name/value boundaries")
	}
}

// TestKeyIsStable pins the content address of a default build: compile,
// run and optimize digests derive from it, so a change here would orphan
// every artifact store an older build wrote.
func TestKeyIsStable(t *testing.T) {
	const want = "21162fc68274927499c4d33de3c9fa765756859b6821c9a9e8c36cca32357672"
	if got := Key("void f() {}", BuildOptions{}); got != want {
		t.Errorf("Key = %s, want %s", got, want)
	}
}

func TestCacheCompileErrorsAreCached(t *testing.T) {
	c := NewCache()
	_, _, err1 := c.Build(context.Background(), "void f() { int x = ; }", BuildOptions{})
	if err1 == nil {
		t.Fatal("bad source compiled")
	}
	_, hit, err2 := c.Build(context.Background(), "void f() { int x = ; }", BuildOptions{})
	if err2 == nil {
		t.Fatal("bad source compiled on second try")
	}
	if !hit {
		t.Error("deterministic compile error was not cached")
	}
}

func TestCacheCanceledBuildRetries(t *testing.T) {
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := workloads.GEMMSource(workloads.GEMMNaive)
	opts := BuildOptions{Defines: workloads.GEMMDefines(workloads.GEMMNaive)}
	if _, _, err := c.Build(ctx, src, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abandoned entry must not poison the cache.
	p, hit, err := c.Build(context.Background(), src, opts)
	if err != nil || p == nil {
		t.Fatalf("retry failed: %v", err)
	}
	if hit {
		t.Error("retry after canceled build reported a hit")
	}
}

// TestCacheBoundEvictsOldestFinished: maxCacheEntries+1 distinct builds
// leave maxCacheEntries entries, the first build is the one dropped, and
// concurrent requests for one key still compile once.
func TestCacheBoundEvictsOldestFinished(t *testing.T) {
	c := NewCache()
	src := workloads.PiSource
	opts := func(i int) BuildOptions {
		d := workloads.PiDefines()
		d["PAD"] = strconv.Itoa(i)
		return BuildOptions{Defines: d}
	}
	for i := 0; i <= maxCacheEntries; i++ {
		if _, _, err := c.Build(context.Background(), src, opts(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != maxCacheEntries || st.Misses != maxCacheEntries+1 {
		t.Fatalf("after %d distinct builds: %+v, want %d entries", maxCacheEntries+1, st, maxCacheEntries)
	}
	if _, hit, _ := c.Build(context.Background(), src, opts(maxCacheEntries)); !hit {
		t.Error("the newest build was evicted")
	}
	if _, hit, _ := c.Build(context.Background(), src, opts(0)); hit {
		t.Error("the oldest build survived eviction")
	}

	const n = 8
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.Build(context.Background(), src, opts(-1))
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a different *Program: a full cache stopped single-flighting", i)
		}
	}
	if st := c.Stats(); st.Entries != maxCacheEntries || st.Misses != maxCacheEntries+3 {
		t.Errorf("after the burst: %+v, want %d entries and %d misses", st, maxCacheEntries, maxCacheEntries+3)
	}
}
