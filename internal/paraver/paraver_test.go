package paraver

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"paravis/internal/profile"
)

func sampleTrace() *recTrace {
	tr := &recTrace{
		AppName:    "test",
		NumThreads: 2,
		EndTime:    1000,
		States: []StateRec{
			{Thread: 0, Begin: 0, End: 400, State: 1},
			{Thread: 0, Begin: 400, End: 500, State: 3},
			{Thread: 0, Begin: 500, End: 1000, State: 1},
			{Thread: 1, Begin: 0, End: 800, State: 1},
			{Thread: 1, Begin: 800, End: 1000, State: 0},
		},
		Events: []EventRec{
			{Thread: 0, Time: 100, Type: EventStalls, Value: 5},
			{Thread: 0, Time: 100, Type: EventFpOps, Value: 32},
			{Thread: 1, Time: 200, Type: EventReadBytes, Value: 256},
		},
	}
	tr.normalize()
	return tr
}

func TestWriteParseRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.stream().WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := parsePRV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumThreads != tr.NumThreads || got.EndTime != tr.EndTime {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.States) != len(tr.States) {
		t.Fatalf("states: got %d want %d", len(got.States), len(tr.States))
	}
	for i := range tr.States {
		if got.States[i] != tr.States[i] {
			t.Errorf("state %d: got %+v want %+v", i, got.States[i], tr.States[i])
		}
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("events: got %d want %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Errorf("event %d: got %+v want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestPRVFormatLines(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.stream().WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "#Paraver") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[0], ":1000:1(2):1:1(2:1)") {
		t.Errorf("header fields wrong: %s", lines[0])
	}
	// First state record.
	if lines[1] != "1:1:1:1:1:0:400:1" {
		t.Errorf("state line = %q", lines[1])
	}
	// Grouped event record: thread 0 at t=100 has two events on one line.
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "2:1:1:1:1:100:") {
			found = true
			if !strings.Contains(l, "100001:5") || !strings.Contains(l, "100003:32") {
				t.Errorf("grouped event line missing counters: %q", l)
			}
		}
	}
	if !found {
		t.Error("event record for thread 0 missing")
	}
}

func TestPCFAndROW(t *testing.T) {
	tr := sampleTrace().stream()
	var pcf, row bytes.Buffer
	if err := tr.WritePCF(&pcf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteROW(&row); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"STATES", "STATES_COLOR", "Running", "Spinning", "EVENT_TYPE", "Pipeline stalls", "Memory bytes read"} {
		if !strings.Contains(pcf.String(), want) {
			t.Errorf("pcf missing %q", want)
		}
	}
	for _, want := range []string{"LEVEL CPU SIZE 2", "LEVEL THREAD SIZE 2", "HW THREAD 1.1.2"} {
		if !strings.Contains(row.String(), want) {
			t.Errorf("row missing %q", want)
		}
	}
}

func TestParseRejectsMalformedComm(t *testing.T) {
	src := "#Paraver (01/01/00 at 00:00):100:1(2):1:1(2:1)\n3:1:1:1:1:0:1:1:1:0:0:0:0\n"
	if _, err := parsePRV(strings.NewReader(src)); err == nil {
		t.Fatal("expected error for truncated communication record")
	}
}

func multiTaskTrace() *recTrace {
	tr := &recTrace{
		AppName:    "cluster",
		Tasks:      2,
		NumThreads: 2,
		EndTime:    500,
		States: []StateRec{
			{Task: 0, Thread: 0, Begin: 0, End: 500, State: 1},
			{Task: 0, Thread: 1, Begin: 0, End: 400, State: 1},
			{Task: 1, Thread: 0, Begin: 50, End: 500, State: 1},
			{Task: 1, Thread: 1, Begin: 50, End: 450, State: 1},
		},
		Events: []EventRec{
			{Task: 0, Thread: 0, Time: 100, Type: EventFpOps, Value: 64},
			{Task: 1, Thread: 1, Time: 200, Type: EventReadBytes, Value: 128},
		},
		Comms: []CommRec{
			{SendTask: 0, SendThread: 0, RecvTask: 1, RecvThread: 0,
				SendTime: 250, RecvTime: 300, Size: 16, Tag: 7},
			{SendTask: 1, SendThread: 1, RecvTask: 0, RecvThread: 1,
				SendTime: 260, RecvTime: 310, Size: 16, Tag: 8},
		},
	}
	tr.normalize()
	return tr
}

func TestMultiTaskRoundTrip(t *testing.T) {
	tr := multiTaskTrace()
	if err := tr.stream().Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.stream().WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, ":2(2:1,2:1)") {
		t.Errorf("header missing two-task list: %s", strings.SplitN(text, "\n", 2)[0])
	}
	// CPU ids: task 1 threads map to CPUs 3 and 4.
	if !strings.Contains(text, "1:3:1:2:1:50:500:1") {
		t.Errorf("task-2 state record wrong:\n%s", text)
	}
	// Comm record present with both endpoints.
	if !strings.Contains(text, "3:1:1:1:1:250:250:3:1:2:1:300:300:16:7") {
		t.Errorf("comm record wrong:\n%s", text)
	}
	got, err := parsePRV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.numTasks() != 2 || got.NumThreads != 2 {
		t.Fatalf("parsed %d tasks x %d threads", got.numTasks(), got.NumThreads)
	}
	if len(got.States) != len(tr.States) || len(got.Events) != len(tr.Events) || len(got.Comms) != len(tr.Comms) {
		t.Fatalf("record counts: %d/%d/%d", len(got.States), len(got.Events), len(got.Comms))
	}
	for i := range tr.Comms {
		if got.Comms[i] != tr.Comms[i] {
			t.Errorf("comm %d: got %+v want %+v", i, got.Comms[i], tr.Comms[i])
		}
	}
	for i := range tr.States {
		if got.States[i] != tr.States[i] {
			t.Errorf("state %d: got %+v want %+v", i, got.States[i], tr.States[i])
		}
	}
}

func TestValidateCommErrors(t *testing.T) {
	tr := multiTaskTrace()
	tr.Comms = append(tr.Comms, CommRec{SendTask: 0, RecvTask: 1, SendTime: 400, RecvTime: 300, Size: 8})
	if err := tr.stream().Validate(); err == nil {
		t.Error("expected recv-before-send error")
	}
	tr = multiTaskTrace()
	tr.Comms = append(tr.Comms, CommRec{SendTask: 5, RecvTask: 1, SendTime: 10, RecvTime: 20, Size: 8})
	if err := tr.stream().Validate(); err == nil {
		t.Error("expected task-range error")
	}
	tr = multiTaskTrace()
	tr.Comms = append(tr.Comms, CommRec{SendTask: 0, RecvTask: 1, SendTime: 10, RecvTime: 20, Size: 0})
	if err := tr.stream().Validate(); err == nil {
		t.Error("expected size error")
	}
}

func TestParseErrors(t *testing.T) {
	const hdr = "#Paraver (01/01/00 at 00:00):100:1(2):1:1(2:1)\n"
	cases := []struct {
		src  string
		want string // substring the error must carry ("" = any error)
	}{
		{"", ""},
		{"not a header\n", ""},
		{"#Paraver (x):abc:1(2):1:1(2:1)\n", ""},
		{hdr + "1:1:1:1:1:0:50\n", ""},      // short state
		{hdr + "9:1:1:1:1:0:50:1\n", ""},    // unknown type
		{hdr + "2:1:1:1:1:10:100001\n", ""}, // odd event fields
		// Headers that used to reach a makeslice panic in the stats fold.
		{"#Paraver (01/01/00 at 00:00):-100:1(1):1:1(1:1)\n", `bad end time "-100" in header`},
		{"#Paraver (01/01/00 at 00:00):100:1(1):1:4000000000(4000000000:1)\n", "4000000000 tasks x 4000000000 threads"},
		{"#Paraver (01/01/00 at 00:00):9223372036854775807:1(1):1:1(1:1)\n", "bad end time"},
		// 2^64+100 used to wrap to End=100 and pass as a clean interval.
		{hdr + "1:1:1:1:1:0:18446744073709551716:1\n", "line 2: integer field overflows"},
		{hdr + "1:1:1:1:1:0:50:1\n1:1:1:1:1:0:-9223372036854775808:1\n", "line 3: integer field overflows"},
		// Every trace invariant fails at the offending line.
		{hdr + "1:3:1:1:3:0:50:1\n", "line 2: state record task 0 thread 2 out of range"},
		{hdr + "1:3:1:2:1:0:50:1\n", "line 2: state record task 1 thread 0 out of range"},
		{hdr + "1:1:1:1:1:0:101:1\n", "line 2: bad state interval"},
		{hdr + "1:1:1:1:1:50:50:1\n", "line 2: bad state interval"},
		{hdr + "1:1:1:1:1:0:50:4\n", "line 2: unknown state 4"},
		{hdr + "1:1:1:1:1:0:50:1\n1:1:1:1:1:40:60:1\n", "line 3: overlapping intervals"},
		{hdr + "2:1:1:1:1:101:100001:5\n", "line 2: event time 101 outside"},
		{hdr + "2:1:1:1:0:10:100001:5\n", "line 2: event task 0 thread -1 out of range"},
		{hdr + "3:1:1:1:1:20:20:2:1:1:2:10:10:4:0\n", "line 2: comm received before sent"},
		{hdr + "3:1:1:1:1:20:20:2:1:1:2:30:30:0:0\n", "line 2: comm with size 0"},
		{hdr + "3:1:1:1:1:20:20:2:1:1:2:130:130:4:0\n", "line 2: comm outside trace window"},
		{hdr + "3:1:1:1:1:20:20:5:1:3:1:30:30:4:0\n", "line 2: comm endpoint out of range"},
	}
	for _, c := range cases {
		_, err := parsePRV(strings.NewReader(c.src))
		if err == nil {
			t.Errorf("parsePRV(%q) should fail", c.src)
		} else if !strings.HasPrefix(err.Error(), "paraver: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parsePRV(%q) = %q, want a paraver error carrying %q", c.src, err, c.want)
		}
	}
	// The largest representable values still parse.
	ok := "#Paraver (01/01/00 at 00:00):9007199254740992:1(2):1:1(2:1)\n2:1:1:1:1:10:100001:9223372036854775807\n"
	tr, err := parsePRV(strings.NewReader(ok))
	if err != nil || len(tr.Events) != 1 || tr.Events[0].Value != math.MaxInt64 {
		t.Errorf("parsePRV(%q) = %+v, %v", ok, tr, err)
	}
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.stream().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *tr
	bad.States = append([]StateRec{}, tr.States...)
	bad.States[0].End = 2000 // beyond EndTime
	if err := bad.stream().Validate(); err == nil {
		t.Error("expected validation error for out-of-range interval")
	}
	// A scan stops at the first bad record: the visitor never sees it.
	var got recTrace
	if err := bad.stream().Scan(&got); err == nil || len(got.States) != 0 {
		t.Errorf("scan delivered %d states, err %v", len(got.States), err)
	}
}

func TestNormalizeCoalesces(t *testing.T) {
	tr := &recTrace{
		NumThreads: 1,
		EndTime:    100,
		States: []StateRec{
			{Thread: 0, Begin: 0, End: 50, State: 1},
			{Thread: 0, Begin: 50, End: 100, State: 1},
		},
	}
	tr.normalize()
	if len(tr.States) != 1 {
		t.Fatalf("coalesce failed: %d records", len(tr.States))
	}
	if tr.States[0].Begin != 0 || tr.States[0].End != 100 {
		t.Errorf("merged interval = %+v", tr.States[0])
	}
}

func TestFromProfile(t *testing.T) {
	u := profile.New(profile.DefaultConfig(), 2, nil)
	u.SetState(0, 0, profile.StateRunning)
	u.SetState(10, 1, profile.StateRunning)
	u.SetState(50, 0, profile.StateSpinning)
	u.SetState(60, 0, profile.StateCritical)
	u.SetState(70, 0, profile.StateRunning)
	u.AddCompute(0, 100, 200)
	u.AddStalls(1, 7)
	u.Finalize(2000)

	tr := &recTrace{}
	if err := StreamOf(u, "app", 2000).Scan(tr); err != nil {
		t.Fatal(err)
	}
	// Thread 0: idle [0,0)(empty), running [0,50), spin [50,60), crit
	// [60,70), running [70,2000).
	var t0 []StateRec
	for _, s := range tr.States {
		if s.Thread == 0 {
			t0 = append(t0, s)
		}
	}
	if len(t0) != 4 {
		t.Fatalf("thread 0 intervals = %+v", t0)
	}
	if t0[1].State != int(profile.StateSpinning) || t0[1].Begin != 50 || t0[1].End != 60 {
		t.Errorf("spin interval = %+v", t0[1])
	}
	// Events present.
	if len(tr.Events) == 0 {
		t.Fatal("no events converted")
	}
	var fp, stalls int64
	for _, ev := range tr.Events {
		switch ev.Type {
		case EventFpOps:
			fp += ev.Value
		case EventStalls:
			stalls += ev.Value
		}
	}
	if fp != 200 || stalls != 7 {
		t.Errorf("fp=%d stalls=%d", fp, stalls)
	}
}

// Property: write-parse round trip preserves arbitrary well-formed traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nIntervals uint8, nEvents uint8) bool {
		rng := seed
		next := func(n int64) int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int64(rng >> 33)
			if v < 0 {
				v = -v
			}
			return v % n
		}
		tr := &recTrace{NumThreads: 4, EndTime: 10000}
		for th := 0; th < 4; th++ {
			cur := int64(0)
			for i := 0; i < int(nIntervals%8)+1 && cur < 9000; i++ {
				d := next(1000) + 1
				tr.States = append(tr.States, StateRec{
					Thread: th, Begin: cur, End: cur + d, State: int(next(4)),
				})
				cur += d
			}
		}
		for i := 0; i < int(nEvents%16); i++ {
			tr.Events = append(tr.Events, EventRec{
				Thread: int(next(4)), Time: next(10000),
				Type: EventStalls + int(next(5)), Value: next(1 << 30),
			})
		}
		tr.normalize()
		if tr.stream().Validate() != nil {
			return true // skip degenerate
		}
		var buf, streamed bytes.Buffer
		if tr.writePRV(&buf) != nil || tr.stream().WritePRV(&streamed) != nil {
			return false
		}
		if !bytes.Equal(buf.Bytes(), streamed.Bytes()) {
			return false
		}
		got, err := parsePRV(&buf)
		if err != nil {
			return false
		}
		if len(got.States) != len(tr.States) || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.States {
			if got.States[i] != tr.States[i] {
				return false
			}
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGzipBundleRoundTrip(t *testing.T) {
	tr := multiTaskTrace()
	dir := t.TempDir()
	path, err := tr.stream().WriteBundleGz(dir, "z")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".prv.gz") {
		t.Fatalf("path = %s", path)
	}
	r, err := OpenPRV(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parsePRV(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got.numTasks() != tr.numTasks() || len(got.States) != len(tr.States) ||
		len(got.Comms) != len(tr.Comms) {
		t.Fatalf("round trip lost records")
	}
	// The companion .pcf/.row must exist uncompressed.
	for _, ext := range []string{".pcf", ".row"} {
		if _, err := os.Stat(filepath.Join(dir, "z"+ext)); err != nil {
			t.Errorf("missing %s: %v", ext, err)
		}
	}
	// Compressed body must be smaller than plain for a nontrivial trace.
	big := &recTrace{NumThreads: 2, EndTime: 1_000_000}
	for i := int64(0); i < 2000; i++ {
		big.States = append(big.States, StateRec{Thread: int(i % 2), Begin: i * 100, End: i*100 + 100, State: int(i % 4)})
	}
	big.normalize()
	var plain bytes.Buffer
	if err := big.stream().WritePRV(&plain); err != nil {
		t.Fatal(err)
	}
	gzPath, err := big.stream().WriteBundleGz(dir, "big")
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(plain.Len()) {
		t.Errorf("gzip did not shrink trace: %d vs %d", st.Size(), plain.Len())
	}
}
