package profile

import (
	"testing"
	"testing/quick"
)

func TestStateRecording(t *testing.T) {
	u := New(DefaultConfig(), 4, nil)
	u.SetState(10, 0, StateRunning)
	u.SetState(10, 0, StateRunning) // no-op: same state
	u.SetState(20, 1, StateRunning)
	u.SetState(30, 0, StateSpinning)
	recs := u.StateRecords()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	// Each record snapshots all threads.
	if len(recs[0].States) != 4 {
		t.Fatalf("record width = %d", len(recs[0].States))
	}
	if recs[2].States[0] != StateSpinning || recs[2].States[1] != StateRunning {
		t.Errorf("snapshot = %v", recs[2].States)
	}
	if u.CurrentState(0) != StateSpinning {
		t.Error("current state wrong")
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

	evs := u.EventSamples()
	// Window 1: thread 0 (compute+read), thread 1 (write).
	// Window 2: thread 1 stalls. Empty windows are skipped.
	if len(evs) != 3 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Thread != 0 || evs[0].IntOps != 10 || evs[0].FpOps != 20 || evs[0].ReadBytes != 64 {
		t.Errorf("window 1 thread 0 = %+v", evs[0])
	}
	if evs[1].Thread != 1 || evs[1].WriteBytes != 32 {
		t.Errorf("window 1 thread 1 = %+v", evs[1])
	}
	if evs[2].Thread != 1 || evs[2].Stalls != 5 {
		t.Errorf("window 2 = %+v", evs[2])
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

func TestDisabledUnit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enabled = false
	u := New(cfg, 2, func(cycle int64, bytes int) { t.Error("flush from disabled unit") })
	u.SetState(1, 0, StateRunning)
	u.AddCompute(0, 1, 1)
	u.AddStalls(0, 1)
	u.AddMem(0, 64, false)
	u.Tick(5000)
	u.Finalize(10000)
	if len(u.StateRecords()) != 0 || len(u.EventSamples()) != 0 {
		t.Error("disabled unit recorded data")
	}
}

func TestStateDurations(t *testing.T) {
	u := New(DefaultConfig(), 2, nil)
	u.SetState(0, 0, StateRunning)
	u.SetState(50, 1, StateRunning) // thread 1 starts at 50
	u.SetState(100, 0, StateCritical)
	u.SetState(150, 0, StateRunning)
	dur := StateDurations(u.StateRecords(), 2, 1000)
	if dur[0][StateRunning] != 100-0+1000-150 {
		t.Errorf("thread 0 running = %d", dur[0][StateRunning])
	}
	if dur[0][StateCritical] != 50 {
		t.Errorf("thread 0 critical = %d", dur[0][StateCritical])
	}
	if dur[1][StateIdle] != 50 {
		t.Errorf("thread 1 idle = %d", dur[1][StateIdle])
	}
	// Conservation: every thread's durations sum to the end time.
	for th := 0; th < 2; th++ {
		var sum int64
		for s := 0; s < 4; s++ {
			sum += dur[th][s]
		}
		if sum != 1000 {
			t.Errorf("thread %d durations sum to %d", th, sum)
		}
	}
}

// Property: duration conservation holds for arbitrary state-change
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
		dur := StateDurations(u.StateRecords(), 3, end)
		for th := 0; th < 3; th++ {
			var sum int64
			for s := 0; s < 4; s++ {
				sum += dur[th][s]
			}
			if sum != end {
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
