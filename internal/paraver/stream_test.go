package paraver

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"paravis/internal/profile"
)

// fuzzUnit drives a profiling unit through a deterministic pseudo-random
// op sequence (state changes, counter increments, sampling ticks) and
// returns it finalized at the returned end cycle.
func fuzzUnit(seed int64, nThreads int, samplePeriod int64) (*profile.Unit, int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := profile.DefaultConfig()
	cfg.Enabled = true
	cfg.SamplePeriod = samplePeriod
	// Small buffers force mid-run flush traffic, covering the clamped
	// drain-window cases.
	cfg.StateBufferLines = 4
	cfg.EventBufferLines = 4
	u := profile.New(cfg, nThreads, nil)

	cycle := int64(0)
	ops := 200 + rng.Intn(400)
	for i := 0; i < ops; i++ {
		cycle += int64(rng.Intn(64))
		u.Tick(cycle)
		th := rng.Intn(nThreads)
		switch rng.Intn(5) {
		case 0:
			u.SetState(cycle, th, profile.ThreadState(rng.Intn(4)))
		case 1:
			u.AddCompute(th, int64(rng.Intn(8)), int64(rng.Intn(8)))
		case 2:
			u.AddMem(th, 4*(1+rng.Intn(16)), rng.Intn(2) == 0)
		case 3:
			u.AddStalls(th, int64(rng.Intn(5)))
		case 4:
			// quiet step: time advances only
		}
	}
	end := cycle + int64(rng.Intn(100)) + 1
	u.Finalize(end)
	return u, end
}

// TestStreamingMatchesMaterializedFuzz checks the streaming path against
// the oracle for arbitrary profiles: the merge-based writer and the
// sort-based reference writer produce byte-identical .prv output, and Scan
// delivers exactly the oracle's records.
func TestStreamingMatchesMaterializedFuzz(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		u, end := fuzzUnit(seed, 1+int(seed%7), 64)
		st := StreamOf(u, "fuzz", end)
		want := fromProfile(u, "fuzz", end)
		var streamed, materialized bytes.Buffer
		if err := st.WritePRV(&streamed); err != nil {
			t.Fatalf("seed %d: streaming write: %v", seed, err)
		}
		if err := want.writePRV(&materialized); err != nil {
			t.Fatalf("seed %d: materialized write: %v", seed, err)
		}
		if !bytes.Equal(streamed.Bytes(), materialized.Bytes()) {
			t.Fatalf("seed %d: streaming and materialized .prv bytes differ", seed)
		}
		var got recTrace
		if err := st.Scan(&got); err != nil {
			t.Fatalf("seed %d: scan: %v", seed, err)
		}
		if !reflect.DeepEqual(got.States, want.States) || !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("seed %d: scanned records differ from the oracle's", seed)
		}
	}
}

// TestGoldenRoundTripSingleTask writes a real profile's trace, parses it
// back (which validates it) and checks the records survive unchanged.
func TestGoldenRoundTripSingleTask(t *testing.T) {
	u, end := fuzzUnit(42, 4, 128)
	tr := fromProfile(u, "roundtrip", end)
	var buf bytes.Buffer
	if err := StreamOf(u, "roundtrip", end).WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := parsePRV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.numTasks() != tr.numTasks() || got.NumThreads != tr.NumThreads || got.EndTime != tr.EndTime {
		t.Fatalf("header mismatch: got %+v", got)
	}
	if !reflect.DeepEqual(got.States, tr.States) {
		t.Errorf("states differ after round trip")
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Errorf("events differ after round trip")
	}
}

// TestGoldenRoundTripMultiTask does the same for a multi-task trace with
// communication records: Scan and ScanPRV of the written bytes deliver
// the same records in the same order. It is the multi-task-plus-comms
// case of the Scan ≡ ScanPRV check.
func TestGoldenRoundTripMultiTask(t *testing.T) {
	const tasks = 3
	st := newStreamTrace("multi", tasks, 2)
	offset := int64(0)
	for task := 0; task < tasks; task++ {
		u, end := fuzzUnit(100+int64(task), 2, 64)
		st.appendProfile(task, u, offset, end)
		offset += end + 10
	}
	// appendProfile leaves EndTime to the caller.
	st.EndTime = offset
	st.Comms = append(st.Comms,
		CommRec{SendTask: 0, RecvTask: 1, SendTime: 5, RecvTime: 50, Size: 4, Tag: 1},
		CommRec{SendTask: 1, RecvTask: 2, SendTime: 3, RecvTime: 40, Size: 8, Tag: 2},
	)
	sortCommRecs(st.Comms)

	tr := &recTrace{AppName: "multi"}
	if err := st.Scan(tr); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	var streamed, materialized bytes.Buffer
	if err := st.WritePRV(&streamed); err != nil {
		t.Fatal(err)
	}
	if err := tr.writePRV(&materialized); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), materialized.Bytes()) {
		t.Fatal("multi-task streaming and materialized .prv bytes differ")
	}

	got := &recTrace{AppName: "multi"}
	if err := ScanPRV(bytes.NewReader(streamed.Bytes()), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("records differ after round trip:\ngot  %+v\nwant %+v", got, tr)
	}
	if got.Tasks != tasks || len(got.Comms) != 2 {
		t.Errorf("parsed %d tasks, %d comms", got.Tasks, len(got.Comms))
	}
}

// TestNormalizeIdempotent checks the oracle's normalize is a fixed point on
// its own output for arbitrary profiles.
func TestNormalizeIdempotent(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		u, end := fuzzUnit(1000+seed, 1+int(seed%5), 96)
		tr := fromProfile(u, "idem", end)
		once := &recTrace{
			States: append([]StateRec(nil), tr.States...),
			Events: append([]EventRec(nil), tr.Events...),
			Comms:  append([]CommRec(nil), tr.Comms...),
		}
		tr.normalize()
		if !reflect.DeepEqual(once.States, tr.States) ||
			!reflect.DeepEqual(once.Events, tr.Events) ||
			!reflect.DeepEqual(once.Comms, tr.Comms) {
			t.Fatalf("seed %d: normalize not idempotent", seed)
		}
	}
}

// TestScanPRVStreams checks the visitor sees records in file order and
// that grouped event lines fan out to one call per pair.
func TestScanPRVStreams(t *testing.T) {
	u, end := fuzzUnit(7, 2, 64)
	st := StreamOf(u, "scan", end)
	var buf bytes.Buffer
	if err := st.WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	var c recTrace
	if err := ScanPRV(bytes.NewReader(buf.Bytes()), &c); err != nil {
		t.Fatal(err)
	}
	tr := fromProfile(u, "scan", end)
	if c.EndTime != tr.EndTime || c.NumThreads != tr.NumThreads {
		t.Fatalf("header mismatch: %+v", c)
	}
	// The writer emits canonical order, so even without normalize the
	// collected records must match the oracle exactly.
	if !reflect.DeepEqual(c.States, tr.States) {
		t.Errorf("scanned states differ from the oracle's")
	}
	if !reflect.DeepEqual(c.Events, tr.Events) {
		t.Errorf("scanned events differ from the oracle's")
	}
}
