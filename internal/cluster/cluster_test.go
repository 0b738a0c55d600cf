package cluster

import (
	"context"
	"math"
	"testing"

	"paravis/internal/core"
	"paravis/internal/paraver"
	"paravis/internal/paraver/analysis"
)

func ramp(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i%7) - 3
	}
	return out
}

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestStencilMatchesReference(t *testing.T) {
	initial := ramp(32)
	cfg := DefaultConfig()
	cfg.FPGAs = 2
	res, err := RunStencil(context.Background(), initial, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(initial, 4)
	if d := maxDiff(res.Final, want); d > 1e-4 {
		t.Fatalf("stencil diverges from reference by %v\ngot  %v\nwant %v", d, res.Final, want)
	}
}

func TestStencilFourFPGAs(t *testing.T) {
	initial := ramp(64)
	cfg := DefaultConfig()
	cfg.FPGAs = 4
	res, err := RunStencil(context.Background(), initial, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(initial, 3)
	if d := maxDiff(res.Final, want); d > 1e-4 {
		t.Fatalf("diverges by %v", d)
	}
	// 3 links x 2 directions x 3 sweeps.
	if res.HaloTransfers != 18 {
		t.Errorf("halo transfers = %d, want 18", res.HaloTransfers)
	}
	if res.Streams.TaskCount != 4 {
		t.Errorf("tasks = %d", res.Streams.TaskCount)
	}
}

func TestStencilTraceWellFormed(t *testing.T) {
	initial := ramp(32)
	cfg := DefaultConfig()
	res, err := RunStencil(context.Background(), initial, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Streams
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Comms) != res.HaloTransfers {
		t.Errorf("comm records = %d, transfers = %d", len(tr.Comms), res.HaloTransfers)
	}
	for _, c := range tr.Comms {
		if c.RecvTime < c.SendTime+cfg.LinkLatency {
			t.Errorf("halo arrived before the link latency: %+v", c)
		}
		if absInt(c.SendTask-c.RecvTask) != 1 {
			t.Errorf("non-neighbor communication: %+v", c)
		}
	}
	// Both tasks must have state records.
	stats := analysis.NewStreamStats(0, 0)
	if err := tr.Scan(stats); err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 2; task++ {
		if stats.StateProfileTask(task).TotalFraction[1] == 0 {
			t.Errorf("task %d never runs in the trace", task)
		}
	}
}

func TestStencilSingleFPGA(t *testing.T) {
	initial := ramp(16)
	cfg := DefaultConfig()
	cfg.FPGAs = 1
	res, err := RunStencil(context.Background(), initial, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaloTransfers != 0 || len(res.Streams.Comms) != 0 {
		t.Error("single FPGA should not communicate")
	}
	want := Reference(initial, 3)
	if d := maxDiff(res.Final, want); d > 1e-4 {
		t.Fatalf("diverges by %v", d)
	}
}

func TestStencilErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FPGAs = 3
	if _, err := RunStencil(context.Background(), ramp(32), 1, cfg); err == nil {
		t.Error("expected indivisible-partition error")
	}
	cfg.FPGAs = 0
	if _, err := RunStencil(context.Background(), ramp(32), 1, cfg); err == nil {
		t.Error("expected FPGA-count error")
	}
	cfg = DefaultConfig()
	cfg.FPGAs = 16
	if _, err := RunStencil(context.Background(), ramp(16), 1, cfg); err == nil {
		t.Error("expected chunk-too-small error")
	}
}

func TestStencilCostAccounting(t *testing.T) {
	initial := ramp(32)
	cfg := DefaultConfig()
	cfg.LinkLatency = 5000 // dominate with link cost
	res, err := RunStencil(context.Background(), initial, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExchangeCycles <= 0 {
		t.Error("no exchange time accounted despite slow link")
	}
	if res.TotalCycles != res.PerStep[0]+res.PerStep[1] {
		t.Errorf("makespan %d != sum of steps %v", res.TotalCycles, res.PerStep)
	}
	if res.ComputeCycles+res.ExchangeCycles != res.TotalCycles {
		t.Errorf("compute %d + exchange %d != total %d",
			res.ComputeCycles, res.ExchangeCycles, res.TotalCycles)
	}
}

func TestWriteClusterBundle(t *testing.T) {
	res, err := RunStencil(context.Background(), ramp(32), 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	prv, err := res.Streams.WriteBundle(dir, "cluster")
	if err != nil {
		t.Fatal(err)
	}
	r, err := paraver.OpenPRV(prv)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	back := analysis.NewStreamStats(0, 0)
	if err := paraver.ScanPRV(r, back); err != nil {
		t.Fatal(err)
	}
	if back.Hdr.Tasks != 2 || back.CommCount != len(res.Streams.Comms) {
		t.Errorf("round trip lost records: %d tasks %d comms", back.Hdr.Tasks, back.CommCount)
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestStencilSharedCompileCache runs the cluster twice through one
// content-addressed compile cache and asserts the second run reuses the
// first compile while producing the identical field.
func TestStencilSharedCompileCache(t *testing.T) {
	initial := ramp(32)
	cfg := DefaultConfig()
	cfg.Cache = core.NewCache()

	first, err := RunStencil(context.Background(), initial, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunStencil(context.Background(), initial, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := cfg.Cache.Stats()
	if cs.Misses != 1 || cs.Hits < 1 {
		t.Fatalf("cache stats %+v: want exactly one compile and at least one hit", cs)
	}
	if d := maxDiff(first.Final, second.Final); d != 0 {
		t.Fatalf("cached compile changed the result by %v", d)
	}
}
