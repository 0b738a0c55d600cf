package profile

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// runsTo returns thread's whole state history up to end: its closed runs
// followed by the open run closed at end.
func runsTo(u *Unit, thread int, end int64) []StateRun {
	rs := append([]StateRun(nil), u.StateRuns(thread)...)
	if r, ok := u.OpenStateRun(thread, end); ok {
		rs = append(rs, r)
	}
	return rs
}

// durations integrates thread's runs up to end into cycles per state, and
// reports whether the runs tile [0, end): the first begins at 0, each
// begins where the one before it ends, and the last ends at end.
func durations(u *Unit, thread int, end int64) (dur [4]int64, tiles bool) {
	at := int64(0)
	for _, r := range runsTo(u, thread, end) {
		if r.Begin != at || r.End <= r.Begin {
			return dur, false
		}
		dur[r.State] += r.End - r.Begin
		at = r.End
	}
	return dur, at == end
}

func TestStateRecording(t *testing.T) {
	u := New(DefaultConfig(), 4, nil)
	u.SetState(10, 0, StateRunning)
	u.SetState(10, 0, StateRunning) // no-op: same state
	u.SetState(20, 1, StateRunning)
	u.SetState(30, 0, StateSpinning)
	want := [][]StateRun{
		{{0, 10, StateIdle}, {10, 30, StateRunning}, {30, 40, StateSpinning}},
		{{0, 20, StateIdle}, {20, 40, StateRunning}},
		{{0, 40, StateIdle}},
		{{0, 40, StateIdle}},
	}
	for th, w := range want {
		if got := runsTo(u, th, 40); !reflect.DeepEqual(got, w) {
			t.Errorf("thread %d runs = %v, want %v", th, got, w)
		}
	}
	// The open run is the thread's current state, and closes nowhere
	// before its begin.
	if r, ok := u.OpenStateRun(0, 31); !ok || r.State != StateSpinning {
		t.Errorf("open run of thread 0 = %v, %v; want Spinning from 30", r, ok)
	}
	if _, ok := u.OpenStateRun(0, 30); ok {
		t.Error("open run closed at its own begin is not empty")
	}
}

func TestRecordWidths(t *testing.T) {
	if got := StateRecordBits(8); got != 2*8+32 {
		t.Errorf("state record bits = %d", got)
	}
	if EventRecordBits != 5*32+32+8 {
		t.Errorf("event record bits = %d", EventRecordBits)
	}
}

func TestEventWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 100
	u := New(cfg, 2, nil)
	u.AddCompute(0, 10, 20)
	u.AddMem(0, 64, false)
	u.AddMem(1, 32, true)
	u.Tick(100) // closes window [0,100)
	u.AddStalls(1, 5)
	u.Tick(250) // closes [100,200) and [200,250 not yet)
	u.Finalize(250)

	// Window 1: thread 0 (compute+read), thread 1 (write).
	// Window 2: thread 1 stalls. Empty windows are skipped.
	want := [][]EventSample{
		{{Start: 0, End: 100, Thread: 0, IntOps: 10, FpOps: 20, ReadBytes: 64}},
		{
			{Start: 0, End: 100, Thread: 1, WriteBytes: 32},
			{Start: 100, End: 200, Thread: 1, Stalls: 5},
		},
	}
	for th, w := range want {
		if got := u.ThreadSamples(th); !reflect.DeepEqual(got, w) {
			t.Errorf("thread %d samples = %+v, want %+v", th, got, w)
		}
	}
}

func TestTotals(t *testing.T) {
	u := New(DefaultConfig(), 2, nil)
	u.AddCompute(0, 3, 7)
	u.AddCompute(0, 2, 1)
	u.AddStalls(0, 4)
	u.AddMem(0, 100, false)
	u.AddMem(0, 50, true)
	u.AddMem(-1, 999, true) // flush engine traffic must be ignored
	stalls, intOps, fpOps, rd, wr := u.TotalsFor(0)
	if stalls != 4 || intOps != 5 || fpOps != 8 || rd != 100 || wr != 50 {
		t.Errorf("totals = %d %d %d %d %d", stalls, intOps, fpOps, rd, wr)
	}
}

func TestBufferFlush(t *testing.T) {
	cfg := Config{Enabled: true, SamplePeriod: 1000, StateBufferLines: 1, EventBufferLines: 1}
	var flushes []int
	u := New(cfg, 8, func(cycle int64, bytes int) { flushes = append(flushes, bytes) })
	// One 512-bit line holds floor(512/48)=10 records of 2*8+32=48 bits.
	for i := 0; i < 25; i++ {
		st := StateRunning
		if i%2 == 1 {
			st = StateIdle
		}
		u.SetState(int64(i), 0, st)
	}
	if len(flushes) != 2 {
		t.Fatalf("flushes = %v, want 2 (25 records, 10 per line)", flushes)
	}
	for _, b := range flushes {
		if b%64 != 0 {
			t.Errorf("flush of %d bytes not line-aligned", b)
		}
	}
	u.Finalize(100)
	if u.Flushes != 3 {
		t.Errorf("final flush missing: %d", u.Flushes)
	}
	if u.FlushedBytes == 0 {
		t.Error("no flushed bytes accounted")
	}
}

// A disabled configuration yields no unit, and every method of the nil
// unit is a no-op: nothing recorded, no flush, zero totals.
func TestDisabledUnit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enabled = false
	u := New(cfg, 2, func(cycle int64, bytes int) { t.Error("flush from disabled unit") })
	if u != nil {
		t.Fatal("disabled config built a unit")
	}
	u.SetState(1, 0, StateRunning)
	u.AddCompute(0, 1, 1)
	u.AddStalls(0, 1)
	u.AddMem(0, 64, false)
	u.Tick(5000)
	u.Finalize(10000)
	if got := u.NextBoundary(); got != math.MaxInt64 {
		t.Errorf("NextBoundary = %d, want MaxInt64", got)
	}
	if u.NumThreads() != 0 || len(u.StateRuns(0)) != 0 || len(u.ThreadSamples(0)) != 0 {
		t.Error("disabled unit recorded data")
	}
	if _, ok := u.OpenStateRun(0, 10000); ok {
		t.Error("disabled unit has an open state run")
	}
	if s, i, f, rb, wb := u.TotalsFor(0); s|i|f|rb|wb != 0 {
		t.Errorf("disabled unit totals = %d %d %d %d %d", s, i, f, rb, wb)
	}
}

func TestStateDurations(t *testing.T) {
	u := New(DefaultConfig(), 2, nil)
	u.SetState(0, 0, StateRunning)
	u.SetState(50, 1, StateRunning) // thread 1 starts at 50
	u.SetState(100, 0, StateCritical)
	u.SetState(150, 0, StateRunning)
	var dur [2][4]int64
	for th := range dur {
		var tiles bool
		// Conservation: every thread's runs tile [0, 1000).
		if dur[th], tiles = durations(u, th, 1000); !tiles {
			t.Errorf("thread %d runs %v do not tile [0, 1000)", th, runsTo(u, th, 1000))
		}
	}
	if dur[0][StateRunning] != 100-0+1000-150 {
		t.Errorf("thread 0 running = %d", dur[0][StateRunning])
	}
	if dur[0][StateCritical] != 50 {
		t.Errorf("thread 0 critical = %d", dur[0][StateCritical])
	}
	if dur[1][StateIdle] != 50 {
		t.Errorf("thread 1 idle = %d", dur[1][StateIdle])
	}
}

// Property: every thread's runs tile [0, end) for arbitrary state-change
// sequences with increasing timestamps.
func TestStateDurationConservationProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		u := New(DefaultConfig(), 3, nil)
		cycle := int64(0)
		for _, s := range steps {
			cycle += int64(s%50) + 1
			u.SetState(cycle, int(s)%3, ThreadState(s%4))
		}
		end := cycle + 10
		for th := 0; th < 3; th++ {
			if _, tiles := durations(u, th, end); !tiles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStateStrings(t *testing.T) {
	if StateIdle.String() != "Idle" || StateSpinning.String() != "Spinning" ||
		StateRunning.String() != "Running" || StateCritical.String() != "Critical" {
		t.Error("state names wrong")
	}
}
