package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func digestFor(i int) string {
	return fmt.Sprintf("%02x%060x", i%256, i)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"trace.prv":    []byte("prv-bytes"),
		"summary.json": []byte(`{"ok":true}`),
	}
	d := digestFor(1)
	if err := s.Put(d, files); err != nil {
		t.Fatal(err)
	}
	ent, ok := s.Get(d)
	if !ok {
		t.Fatal("just-put digest missed")
	}
	for name, want := range files {
		got, err := ent.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: got %q, want %q", name, got, want)
		}
	}
	if _, ok := s.Get(digestFor(2)); ok {
		t.Error("unknown digest hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes != int64(len(files["trace.prv"])+len(files["summary.json"])) {
		t.Errorf("bytes = %d", st.Bytes)
	}
	if _, err := ent.ReadFile("../escape"); err == nil {
		t.Error("path traversal in ReadFile not rejected")
	}
	if err := s.Put(digestFor(3), map[string][]byte{"a/b": nil}); err == nil {
		t.Error("path traversal in Put not rejected")
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := digestFor(7)
	if err := s.Put(d, map[string][]byte{"x": []byte("hello")}); err != nil {
		t.Fatal(err)
	}

	// A second Open on the same directory must see the entry.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := s2.Get(d)
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	got, err := ent.ReadFile("x")
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes != 5 {
		t.Errorf("reopened stats = %+v", st)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 30)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("x"), 10)
	for i := 0; i < 3; i++ {
		if err := s.Put(digestFor(i), map[string][]byte{"b": blob}); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the on-disk LRU order is unambiguous.
		time.Sleep(5 * time.Millisecond)
	}
	// Touch 0 so 1 becomes the LRU victim.
	if _, ok := s.Get(digestFor(0)); !ok {
		t.Fatal("entry 0 missing")
	}
	if err := s.Put(digestFor(3), map[string][]byte{"b": blob}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(digestFor(1)); ok {
		t.Error("LRU victim 1 still present")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(digestFor(i)); !ok {
			t.Errorf("entry %d evicted, want kept", i)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 30 {
		t.Errorf("stats = %+v", st)
	}
	// The evicted entry must be gone from disk too, not just the index.
	if _, err := os.Stat(s.dirFor(digestFor(1))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("victim dir still on disk: %v", err)
	}
}

func TestReopenEnforcesBudgetOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("y"), 10)
	for i := 0; i < 4; i++ {
		if err := s.Put(digestFor(i), map[string][]byte{"b": blob}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Reopen with a budget for only two entries: the two oldest by mtime
	// must be evicted at Open.
	s2, err := Open(dir, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if _, ok := s2.Get(digestFor(i)); ok {
			t.Errorf("old entry %d survived reopen under budget", i)
		}
	}
	for _, i := range []int{2, 3} {
		if _, ok := s2.Get(digestFor(i)); !ok {
			t.Errorf("recent entry %d evicted at reopen", i)
		}
	}
	if st := s2.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
}

func TestOversizeEntryIsKept(t *testing.T) {
	s, err := Open(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("z"), 100)
	if err := s.Put(digestFor(1), map[string][]byte{"b": big}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(digestFor(1)); !ok {
		t.Error("entry larger than the whole budget must still be stored")
	}
}

func TestPutExistingRefreshesRecency(t *testing.T) {
	s, err := Open(t.TempDir(), 20)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("x"), 10)
	for i := 0; i < 2; i++ {
		if err := s.Put(digestFor(i), map[string][]byte{"b": blob}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(digestFor(0), map[string][]byte{"b": blob}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(digestFor(2), map[string][]byte{"b": blob}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(digestFor(1)); ok {
		t.Error("re-put entry 0 should have made 1 the victim")
	}
	if _, ok := s.Get(digestFor(0)); !ok {
		t.Error("re-put entry 0 evicted")
	}
}

// TestCoalescerSingleExecution: concurrent joins of one key elect one
// leader, and every follower reads the leader's result once Done closes.
func TestCoalescerSingleExecution(t *testing.T) {
	var c Coalescer
	var execs, followers atomic.Int64
	var wg sync.WaitGroup
	release := make(chan struct{})
	const n = 16
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, leader, err := c.Join("k")
			if err != nil {
				t.Error(err)
				return
			}
			if leader {
				execs.Add(1)
				<-release
				f.Finish("result", nil)
			} else {
				followers.Add(1)
			}
			<-f.Done()
			v, err := f.Result()
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let everyone join before the leader finishes.
	for c.Stats().Coalesced < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Errorf("%d leaders, want 1", got)
	}
	if followers.Load() != n-1 {
		t.Errorf("followers = %d, want %d", followers.Load(), n-1)
	}
	for i, v := range results {
		if v != "result" {
			t.Errorf("caller %d got %v", i, v)
		}
	}
}

// finished reports whether f's result is published, without blocking.
func finished(f *Flight) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

func TestCoalescerWindowLingers(t *testing.T) {
	c := Coalescer{Window: time.Hour}
	f, leader, err := c.Join("k")
	if !leader || err != nil {
		t.Fatalf("leader join: %v %v", leader, err)
	}
	f.Finish(1, nil)
	// Within the window the finished flight is still joinable: no re-run.
	g, leader, err := c.Join("k")
	if leader || err != nil || g != f {
		t.Fatalf("window join: leader=%v err=%v same flight=%v", leader, err, g == f)
	}
	if !finished(g) {
		t.Fatal("lingering flight not done")
	}
	if v, err := g.Result(); v != 1 || err != nil {
		t.Fatalf("window join result: %v %v", v, err)
	}
}

func TestCoalescerErrorsDoNotLinger(t *testing.T) {
	c := Coalescer{Window: time.Hour}
	boom := errors.New("boom")
	f, leader, err := c.Join("k")
	if !leader || err != nil {
		t.Fatalf("leader join: %v %v", leader, err)
	}
	g, _, err := c.Join("k")
	if err != nil {
		t.Fatal(err)
	}
	f.Finish(nil, boom)
	// The attached follower shares the error...
	if !finished(g) {
		t.Fatal("failed flight not done")
	}
	if _, err := g.Result(); !errors.Is(err, boom) {
		t.Fatalf("follower err = %v", err)
	}
	// ...but the next joiner leads a retry.
	if _, leader, err := c.Join("k"); !leader || err != nil {
		t.Errorf("failed flight lingered: leader=%v err=%v", leader, err)
	}
}

func TestCoalescerSaturation(t *testing.T) {
	c := Coalescer{MaxWaiters: 2}
	f, leader, err := c.Join("k")
	if !leader || err != nil {
		t.Fatalf("leader join: %v %v", leader, err)
	}
	if _, l, err := c.Join("k"); l || err != nil {
		t.Fatalf("second join: %v %v", l, err)
	}
	if _, _, err := c.Join("k"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third join err = %v, want ErrSaturated", err)
	}
	if st := c.Stats(); st.Rejected != 1 || st.Coalesced != 1 {
		t.Errorf("stats = %+v", st)
	}
	f.Finish(nil, nil)
}

// TestCoalescerFinishedFlightIgnoresMaxWaiters: once a flight has
// finished, serving its lingering result is free, so the size window no
// longer applies — a hot digest must not 429 on joins that cost nothing.
func TestCoalescerFinishedFlightIgnoresMaxWaiters(t *testing.T) {
	c := Coalescer{Window: time.Hour, MaxWaiters: 2}
	f, leader, err := c.Join("k")
	if !leader || err != nil {
		t.Fatalf("leader join: %v %v", leader, err)
	}
	f.Finish(42, nil)
	for i := 0; i < 10; i++ {
		g, l, err := c.Join("k")
		if l || err != nil {
			t.Fatalf("post-finish join %d: leader=%v err=%v", i, l, err)
		}
		if !finished(g) {
			t.Fatalf("post-finish join %d: flight not done", i)
		}
		if v, err := g.Result(); v != 42 || err != nil {
			t.Fatalf("post-finish join %d: result %v %v", i, v, err)
		}
	}
	if st := c.Stats(); st.Rejected != 0 {
		t.Errorf("finished flight rejected %d joins", st.Rejected)
	}
}

// TestFlightDetach: detaching decrements the waiter count so the leader
// can tell whether anyone still wants the result, and frees a size-
// window slot for the next joiner.
func TestFlightDetach(t *testing.T) {
	c := Coalescer{MaxWaiters: 2}
	f, leader, err := c.Join("k")
	if !leader || err != nil {
		t.Fatalf("leader join: %v %v", leader, err)
	}
	if _, l, err := c.Join("k"); l || err != nil {
		t.Fatalf("follower join: %v %v", l, err)
	}
	if _, _, err := c.Join("k"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated join err = %v", err)
	}
	if left := f.Detach(); left != 1 {
		t.Fatalf("Detach = %d, want 1", left)
	}
	// The freed slot is joinable again.
	if _, l, err := c.Join("k"); l || err != nil {
		t.Fatalf("join after detach: %v %v", l, err)
	}
	if left := f.Detach(); left != 1 {
		t.Fatalf("second Detach = %d, want 1", left)
	}
	if left := f.Detach(); left != 0 {
		t.Fatalf("third Detach = %d, want 0", left)
	}
	if left := f.Detach(); left != 0 {
		t.Fatalf("Detach below zero = %d", left)
	}
	f.Finish(nil, nil)
}
