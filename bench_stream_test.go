package paravis

// Benchmarks for the streaming trace pipeline: profile-to-trace view
// construction and .prv emission. -benchmem shows the near-zero
// steady-state allocation of the streaming writer (a handful of fixed
// buffers per call, none per record).

import (
	"context"
	"io"
	"testing"

	"paravis/internal/experiments"
	"paravis/internal/paraver"
	"paravis/internal/workloads"
)

// benchProfileRun simulates one small GEMM with a fine sample period so
// the unit carries a realistic record mix (state runs, event windows,
// flush-perturbed drains).
func benchProfileRun(b *testing.B) *experiments.GEMMRun {
	b.Helper()
	cfg := benchOpts(24).SimCfg
	cfg.Profile.SamplePeriod = 64
	r, err := experiments.RunGEMM(context.Background(), workloads.GEMMNaive, 24, 8, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// recordCounter counts the state and event records a scan delivers.
type recordCounter struct {
	paraver.Discard
	states, events int
}

func (c *recordCounter) State(paraver.StateRec) error { c.states++; return nil }
func (c *recordCounter) Event(paraver.EventRec) error { c.events++; return nil }

func countRecords(b *testing.B, st *paraver.StreamTrace) recordCounter {
	b.Helper()
	var c recordCounter
	if err := st.Scan(&c); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkFromProfile measures turning a finished profiling unit into a
// trace: the zero-copy streaming view.
func BenchmarkFromProfile(b *testing.B) {
	r := benchProfileRun(b)
	u, cycles := r.Out.Result.Prof, r.Out.Result.Cycles
	c := countRecords(b, r.Out.Streams)
	records := float64(c.states + c.events)

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := paraver.StreamOf(u, "gemm", cycles)
			if st.NumThreads == 0 {
				b.Fatal("empty stream")
			}
		}
		b.ReportMetric(records*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkTraceWrite measures .prv emission: strconv.AppendInt into a
// reused buffer, k-way merge straight from the per-thread streams.
func BenchmarkTraceWrite(b *testing.B) {
	st := benchProfileRun(b).Out.Streams
	c := countRecords(b, st)
	records := float64(c.states + c.events)

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := st.WritePRV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(records*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}
