package analysis

import (
	"math"
	"strings"
	"testing"

	"paravis/internal/paraver"
)

// fold feeds hand-written records through a StreamStats, header first.
func fold(t *testing.T, st *StreamStats, h paraver.Header, states []paraver.StateRec, events []paraver.EventRec) *StreamStats {
	t.Helper()
	if h.Tasks == 0 {
		h.Tasks = 1
	}
	if err := st.Header(h); err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		if err := st.State(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range events {
		if err := st.Event(e); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// foldSample folds the two-thread, 1000-cycle sample trace into st.
func foldSample(t *testing.T, st *StreamStats) *StreamStats {
	return fold(t, st, paraver.Header{NumThreads: 2, EndTime: 1000},
		[]paraver.StateRec{
			{Thread: 0, Begin: 0, End: 500, State: 1},
			{Thread: 0, Begin: 500, End: 600, State: 3},
			{Thread: 0, Begin: 600, End: 700, State: 2},
			{Thread: 0, Begin: 700, End: 1000, State: 1},
			{Thread: 1, Begin: 0, End: 900, State: 1},
			{Thread: 1, Begin: 900, End: 1000, State: 0},
		},
		[]paraver.EventRec{
			{Thread: 0, Time: 50, Type: paraver.EventReadBytes, Value: 100},
			{Thread: 0, Time: 150, Type: paraver.EventReadBytes, Value: 300},
			{Thread: 1, Time: 150, Type: paraver.EventWriteBytes, Value: 100},
			{Thread: 0, Time: 250, Type: paraver.EventFpOps, Value: 64},
			{Thread: 0, Time: 850, Type: paraver.EventFpOps, Value: 32},
			{Thread: 0, Time: 999, Type: paraver.EventStalls, Value: 11},
		})
}

func TestStateProfile(t *testing.T) {
	p := foldSample(t, NewStreamStats(100, 10)).StateProfileTask(0)
	if got := p.Fraction[0][3]; math.Abs(got-0.1) > 1e-9 {
		t.Errorf("thread 0 spinning fraction = %v, want 0.1", got)
	}
	if got := p.Fraction[0][2]; math.Abs(got-0.1) > 1e-9 {
		t.Errorf("thread 0 critical fraction = %v, want 0.1", got)
	}
	if got := p.Fraction[1][0]; math.Abs(got-0.1) > 1e-9 {
		t.Errorf("thread 1 idle fraction = %v, want 0.1", got)
	}
	// Totals: (100+100)/2000 = 0.05 spinning+critical split evenly.
	if got := p.TotalFraction[3]; math.Abs(got-0.05) > 1e-9 {
		t.Errorf("total spinning = %v, want 0.05", got)
	}
	var sum float64
	for s := 0; s < 4; s++ {
		sum += p.TotalFraction[s]
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestEventSeries(t *testing.T) {
	// 10 bins and an explicit 100-cycle bin width are the same series.
	for _, st := range []*StreamStats{NewStreamStats(0, 10), NewStreamStatsWidth(0, 100, -1)} {
		s := foldSample(t, st).Series(paraver.EventReadBytes)
		if s.Bins() != 10 || s.BinWidth != 100 {
			t.Fatalf("bins = %d of width %d", s.Bins(), s.BinWidth)
		}
		if s.Values[0] != 100 || s.Values[1] != 300 {
			t.Errorf("series = %v", s.Values[:3])
		}
		if s.Sum() != 400 {
			t.Errorf("sum = %v", s.Sum())
		}
		if s.Max() != 300 {
			t.Errorf("max = %v", s.Max())
		}
	}
	// A bin width that does not divide the run rounds the bin count up, and
	// an event at the horizon lands in the last bin.
	st := fold(t, NewStreamStatsWidth(0, 300, -1), paraver.Header{NumThreads: 1, EndTime: 1000}, nil,
		[]paraver.EventRec{{Time: 1000, Type: paraver.EventStalls, Value: 7}})
	if s := st.Series(paraver.EventStalls); s.Bins() != 4 || s.Values[3] != 7 {
		t.Errorf("stall series = %v", s.Values)
	}
}

func TestMemoryAndFlopSeries(t *testing.T) {
	st := foldSample(t, NewStreamStatsWidth(0, 100, -1))
	if mem := st.MemSeries(); mem.Values[1] != 400 { // 300 read + 100 write
		t.Errorf("mem bin 1 = %v, want 400", mem.Values[1])
	}
	if fp := st.Series(paraver.EventFpOps); fp.Values[2] != 64 || fp.Values[8] != 32 {
		t.Errorf("flop series = %v", fp.Values)
	}
	// Restricted to thread 0, thread 1's write drops out of the series but
	// not out of the totals.
	st = foldSample(t, NewStreamStatsWidth(0, 100, 0))
	if mem := st.MemSeries(); mem.Values[1] != 300 {
		t.Errorf("thread-0 mem bin 1 = %v, want 300", mem.Values[1])
	}
	if got := st.Total(paraver.EventWriteBytes); got != 100 {
		t.Errorf("write total = %d, want 100", got)
	}
}

func TestBandwidthAndGFlops(t *testing.T) {
	st := foldSample(t, NewStreamStats(0, 0))
	bpc := st.AvgBandwidthBytesPerCycle()
	if math.Abs(bpc-0.5) > 1e-9 { // 500 bytes / 1000 cycles
		t.Errorf("bytes/cycle = %v, want 0.5", bpc)
	}
	// 0.5 B/cycle at 200 MHz = 0.1 GB/s.
	if got := BandwidthGBs(bpc, 200); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("GB/s = %v, want 0.1", got)
	}
	// 96 FLOPs over 1000 cycles at 100 MHz: 96 / 10us / 1e9 = 0.0096 GFLOP/s.
	if got := st.GFlops(100); math.Abs(got-0.0096) > 1e-9 {
		t.Errorf("GFLOP/s = %v, want 0.0096", got)
	}
	if got := st.Total(paraver.EventStalls); got != 11 {
		t.Errorf("stall total = %d, want 11", got)
	}
}

func TestPhaseStats(t *testing.T) {
	phases := func(events []paraver.EventRec, thread int) PhaseStats {
		st := fold(t, NewStreamStatsWidth(0, 100, thread), paraver.Header{NumThreads: 2, EndTime: 1000}, nil, events)
		return ClassifyPhases(st.MemSeries(), st.Series(paraver.EventFpOps), 0, 0)
	}
	// Alternating: mem in even bins, compute in odd bins.
	var alternating, overlapped []paraver.EventRec
	for b := int64(0); b < 10; b++ {
		tm := b*100 + 50
		typ := paraver.EventReadBytes
		if b%2 == 1 {
			typ = paraver.EventFpOps
		}
		alternating = append(alternating, paraver.EventRec{Time: tm, Type: typ, Value: 64})
		overlapped = append(overlapped,
			paraver.EventRec{Time: tm, Type: paraver.EventReadBytes, Value: 64},
			paraver.EventRec{Time: tm, Type: paraver.EventFpOps, Value: 64})
	}
	st := phases(alternating, -1)
	if st.Bins != 10 || st.Both != 0 || st.MemOnly != 5 || st.ComputeOnly != 5 {
		t.Errorf("alternating phases: %+v", st)
	}
	if st.Overlap() != 0 {
		t.Errorf("overlap = %v, want 0", st.Overlap())
	}
	// Overlapped: both in every bin.
	if st := phases(overlapped, -1); st.Overlap() != 1 {
		t.Errorf("overlap = %v, want 1 (%+v)", st.Overlap(), st)
	}
	// Per thread: thread 1 computing in thread 0's load windows makes the
	// aggregate look overlapped while each thread alone is not.
	mixed := append([]paraver.EventRec(nil), alternating...)
	for _, e := range alternating {
		if e.Type == paraver.EventReadBytes {
			mixed = append(mixed, paraver.EventRec{Thread: 1, Time: e.Time, Type: paraver.EventFpOps, Value: 8})
		}
	}
	if st := phases(mixed, -1); st.Both != 5 || st.ComputeOnly != 5 {
		t.Errorf("aggregate phases: %+v", st)
	}
	if st := phases(mixed, 0); st.Both != 0 || st.MemOnly != 5 || st.ComputeOnly != 5 {
		t.Errorf("thread-0 phases: %+v", st)
	}
	if st := phases(mixed, 1); st.ComputeOnly != 5 || st.Idle != 5 {
		t.Errorf("thread-1 phases: %+v", st)
	}
}

func TestRenderStateTimeline(t *testing.T) {
	rows := foldSample(t, NewStreamStats(100, 10)).TimelineTask(0)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(rows[0], "S") || !strings.Contains(rows[0], "C") {
		t.Errorf("thread 0 row missing spin/critical: %s", rows[0])
	}
	if !strings.HasSuffix(rows[1], "|") || !strings.Contains(rows[1], "R") {
		t.Errorf("thread 1 row malformed: %s", rows[1])
	}
	// Thread 1 idles at the end: last columns '.'.
	body := rows[1][strings.Index(rows[1], "|")+1:]
	if body[len(body)-2] != '.' {
		t.Errorf("thread 1 should end idle: %s", rows[1])
	}
}

// TestTimelineOverwriteRule pins the painting rule at a scale where
// several intervals share a column: louder states win (Spinning over
// Critical over Running over Idle) whatever the order they arrive in.
func TestTimelineOverwriteRule(t *testing.T) {
	st := fold(t, NewStreamStats(4, 0), paraver.Header{NumThreads: 1, EndTime: 400}, []paraver.StateRec{
		{Begin: 0, End: 90, State: 1}, {Begin: 90, End: 95, State: 3}, {Begin: 95, End: 100, State: 1}, // S survives R
		{Begin: 100, End: 110, State: 2}, {Begin: 110, End: 200, State: 1}, // C survives R
		{Begin: 200, End: 210, State: 3}, {Begin: 210, End: 300, State: 2}, // S survives C
		{Begin: 300, End: 310, State: 1}, {Begin: 310, End: 400, State: 0}, // R survives Idle
	}, nil)
	if got := st.TimelineTask(0)[0]; got != "T0 |SCSR|" {
		t.Errorf("timeline = %q, want %q", got, "T0 |SCSR|")
	}
}

// TestPerTaskViews checks the per-accelerator selection of a multi-task
// trace: each task's profile and timeline cover only its own threads, and
// communication records are counted trace-wide.
func TestPerTaskViews(t *testing.T) {
	st := fold(t, NewStreamStats(10, 0), paraver.Header{Tasks: 2, NumThreads: 2, EndTime: 500}, []paraver.StateRec{
		{Task: 0, Thread: 0, Begin: 0, End: 500, State: 1},
		{Task: 0, Thread: 1, Begin: 0, End: 400, State: 1},
		{Task: 1, Thread: 0, Begin: 50, End: 500, State: 2},
		{Task: 1, Thread: 1, Begin: 50, End: 450, State: 1},
	}, nil)
	for _, c := range []paraver.CommRec{
		{SendTask: 0, RecvTask: 1, SendTime: 250, RecvTime: 300, Size: 16},
		{SendTask: 1, RecvTask: 0, SendTime: 260, RecvTime: 330, Size: 8},
	} {
		if err := st.Comm(c); err != nil {
			t.Fatal(err)
		}
	}
	p0, p1 := st.StateProfileTask(0), st.StateProfileTask(1)
	if p0.Cycles[0][1] != 500 || p0.Cycles[1][1] != 400 || p0.Cycles[0][2] != 0 {
		t.Errorf("task 0 cycles = %v", p0.Cycles)
	}
	if p1.Cycles[0][2] != 450 || p1.Cycles[1][1] != 400 || len(p1.Cycles) != 2 {
		t.Errorf("task 1 cycles = %v", p1.Cycles)
	}
	if got := st.TimelineTask(1); got[0] != "T0 |.CCCCCCCCC|" || got[1] != "T1 |.RRRRRRRR.|" {
		t.Errorf("task 1 timeline = %q", got)
	}
	if st.CommCount != 2 || st.CommBytes != 24 || st.CommMaxLatency != 70 {
		t.Errorf("comm stats = %d records, %d bytes, max latency %d", st.CommCount, st.CommBytes, st.CommMaxLatency)
	}
}

func TestRenderSeries(t *testing.T) {
	s := Series{BinWidth: 10, Values: []float64{0, 1, 2, 4, 8, 4, 2, 1, 0}}
	out := RenderSeries(s, 9)
	if len([]rune(out)) != 9 {
		t.Fatalf("width = %d", len([]rune(out)))
	}
	runes := []rune(out)
	if runes[4] != '█' {
		t.Errorf("peak glyph = %q", string(runes[4]))
	}
	if runes[0] != ' ' {
		t.Errorf("zero glyph = %q", string(runes[0]))
	}
}

func TestEmptyTrace(t *testing.T) {
	st := fold(t, NewStreamStats(10, 0), paraver.Header{NumThreads: 1, EndTime: 0}, nil, nil)
	if got := st.AvgBandwidthBytesPerCycle(); got != 0 {
		t.Errorf("bandwidth of empty trace = %v", got)
	}
	if got := st.GFlops(100); got != 0 {
		t.Errorf("gflops of empty trace = %v", got)
	}
	if p := st.StateProfileTask(0); p.NumThreads != 1 || p.TotalFraction != [4]float64{} {
		t.Errorf("profile = %+v", p)
	}
	if got := st.TimelineTask(0); len(got) != 1 || got[0] != "T0 |..........|" {
		t.Errorf("timeline = %q", got)
	}
	if s := st.MemSeries(); s.Bins() != 1 || s.Sum() != 0 {
		t.Errorf("series = %+v", s)
	}
}

// FuzzScanStats feeds arbitrary bytes through ScanPRV into the fold:
// whatever the file holds, the outcome is statistics or an error, never a
// panic — every index the fold uses was range-checked by the scan.
func FuzzScanStats(f *testing.F) {
	const hdr = "#Paraver (01/01/00 at 00:00):100:1(2):1:1(2:1)\n"
	for _, seed := range []string{
		hdr + "1:1:1:1:1:0:50:1\n1:2:1:1:2:10:100:3\n2:1:1:1:1:100:100001:5:100004:64\n",
		"#Paraver (01/01/00 at 00:00):-100:1(1):1:1(1:1)\n",
		"#Paraver (01/01/00 at 00:00):100:1(1):1:4000000000(4000000000:1)\n",
		"#Paraver (01/01/00 at 00:00):9223372036854775807:1(1):1:1(1:1)\n1:1:1:1:1:5000000000000000000:9223372036854775807:1\n",
		hdr + "1:1:1:1:1:0:18446744073709551716:1\n",
		hdr + "1:1:1:1:9:0:50:7\n2:1:1:3:1:500:1:-1\n",
		"#Paraver (01/01/00 at 00:00):500:1(4):1:2(2:1,2:1)\n3:1:1:1:1:250:250:3:1:2:1:300:300:16:7\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStreamStats(96, 64)
		if err := paraver.ScanPRV(strings.NewReader(string(data)), st); err != nil {
			return
		}
		for task := 0; task < st.Hdr.Tasks; task++ {
			st.StateProfileTask(task)
			st.TimelineTask(task)
		}
		st.MemSeries()
	})
}
