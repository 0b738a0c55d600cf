package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"paravis/internal/cluster"
	"paravis/internal/core"
	"paravis/internal/paraver"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// The specialized stage-closure engine must be observationally equal to
// the interpreted oracle on every seed workload: identical cycle counts,
// identical kernel outputs, and byte-identical Paraver trace bundles.
// This is the acceptance gate for the specialization pass — any drift in
// scheduling, profiling, or evaluation shows up as a trace diff here.
func TestWorkloadTracesInterpVsSpecialized(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads twice")
	}
	ctx := context.Background()
	const dim, threads = 32, 4

	writeTrace := func(t *testing.T, out *core.RunOutput, dir, base string) map[string][]byte {
		t.Helper()
		if _, err := out.WriteTrace(dir, base); err != nil {
			t.Fatalf("write trace: %v", err)
		}
		files := map[string][]byte{}
		for _, ext := range []string{".prv", ".pcf", ".row"} {
			data, err := os.ReadFile(filepath.Join(dir, base+ext))
			if err != nil {
				t.Fatalf("read trace file: %v", err)
			}
			files[ext] = data
		}
		return files
	}

	compare := func(t *testing.T, name string, spec, interp *core.RunOutput) {
		t.Helper()
		if sc, ic := spec.Result.Cycles, interp.Result.Cycles; sc != ic {
			t.Errorf("%s: cycles %d (spec) != %d (interp)", name, sc, ic)
		}
		sd, id := t.TempDir(), t.TempDir()
		sf := writeTrace(t, spec, sd, "s")
		tf := writeTrace(t, interp, id, "s")
		for ext, sb := range sf {
			if string(sb) != string(tf[ext]) {
				t.Errorf("%s: trace %s differs between engines (%d vs %d bytes)",
					name, ext, len(sb), len(tf[ext]))
			}
		}
	}

	for _, v := range workloads.AllGEMMVersions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			cfg := sim.DefaultConfig()
			spec, err := RunGEMM(ctx, v, dim, threads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Interp = true
			interp, err := RunGEMM(ctx, v, dim, threads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !spec.Correct || !interp.Correct {
				t.Errorf("correctness: spec=%v interp=%v", spec.Correct, interp.Correct)
			}
			compare(t, v.String(), spec.Out, interp.Out)
		})
	}

	t.Run("pi", func(t *testing.T) {
		opts := DefaultOptions()
		opts.Quiet = true
		opts.PiSteps = []int{25600}
		spec, err := RunPi(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.SimCfg.Interp = true
		interp, err := RunPi(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		sr, ir := spec.Runs[0], interp.Runs[0]
		if !sr.Correct || !ir.Correct {
			t.Errorf("pi correctness: spec=%v interp=%v", sr.Correct, ir.Correct)
		}
		if sr.Out.Result.ScalarsOut["final_sum"] != ir.Out.Result.ScalarsOut["final_sum"] {
			t.Errorf("pi sum differs: spec=%v interp=%v",
				sr.Out.Result.ScalarsOut["final_sum"], ir.Out.Result.ScalarsOut["final_sum"])
		}
		compare(t, "pi", sr.Out, ir.Out)
	})
}

// recordLog is a trace visitor that keeps every call it receives, in
// order: the collecting oracle of the scan-equivalence test.
type recordLog struct {
	calls []any
}

func (l *recordLog) Header(h paraver.Header) error  { l.calls = append(l.calls, h); return nil }
func (l *recordLog) State(s paraver.StateRec) error { l.calls = append(l.calls, s); return nil }
func (l *recordLog) Event(e paraver.EventRec) error { l.calls = append(l.calls, e); return nil }
func (l *recordLog) Comm(c paraver.CommRec) error   { l.calls = append(l.calls, c); return nil }

// A live trace and its .prv file must read the same: StreamTrace.Scan
// delivers, call for call, what ScanPRV delivers from the bytes WritePRV
// wrote — for all six seed workloads and a two-FPGA cluster trace with
// communication records. This is what lets one fold serve both.
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
	initial := make([]float32, 64)
	for i := range initial {
		initial[i] = float32(i % 7)
	}
	stencil, err := cluster.RunStencil(ctx, initial, 3, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stencil.Streams.Comms) == 0 {
		t.Fatal("cluster trace has no communication records")
	}
	traces["cluster"] = stencil.Streams

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
