package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"paravis/internal/paraver"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// recordLog is a trace visitor that keeps every call it receives, in
// order: the collecting oracle of the scan-equivalence test.
type recordLog struct {
	calls []any
}

func (l *recordLog) Header(h paraver.Header) error  { l.calls = append(l.calls, h); return nil }
func (l *recordLog) State(s paraver.StateRec) error { l.calls = append(l.calls, s); return nil }
func (l *recordLog) Event(e paraver.EventRec) error { l.calls = append(l.calls, e); return nil }

// A live trace and its .prv file must read the same: StreamTrace.Scan
// delivers, call for call, what ScanPRV delivers from the bytes WritePRV
// wrote — for all six seed workloads. This is what lets one fold serve
// both.
func TestScanMatchesScanPRVOnSeedWorkloads(t *testing.T) {
	ctx := context.Background()
	traces := map[string]*paraver.StreamTrace{}
	for _, v := range workloads.AllGEMMVersions {
		run, err := RunGEMM(ctx, v, 32, 8, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		traces[v.String()] = run.Out.Streams
	}
	opts := DefaultOptions()
	opts.Quiet = true
	opts.PiSteps = []int{12800}
	pi, err := RunPi(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	traces["pi"] = pi.Runs[0].Out.Streams

	for name, st := range traces {
		var live, file recordLog
		if err := st.Scan(&live); err != nil {
			t.Fatalf("%s: Scan: %v", name, err)
		}
		var prv bytes.Buffer
		if err := st.WritePRV(&prv); err != nil {
			t.Fatalf("%s: WritePRV: %v", name, err)
		}
		if err := paraver.ScanPRV(&prv, &file); err != nil {
			t.Fatalf("%s: ScanPRV: %v", name, err)
		}
		if len(live.calls) < 10 {
			t.Errorf("%s: only %d records", name, len(live.calls))
		}
		if !reflect.DeepEqual(live.calls, file.calls) {
			t.Errorf("%s: Scan delivered %d calls, ScanPRV %d, or they differ", name, len(live.calls), len(file.calls))
		}
	}
}
