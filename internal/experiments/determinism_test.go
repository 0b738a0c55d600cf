package experiments

import (
	"context"
	"testing"

	"paravis/internal/workloads"
)

// The parallel fan-out must be invisible in the results: every experiment
// run with one worker (fully sequential) and with several workers must
// produce byte-identical formatted output. Run under -race this also
// checks that concurrent design points share no mutable state (the compile
// cache hands the same *core.Program to all workers).

// detOpts is smaller than testOpts so the x2 runs stay fast.
func detOpts(workers int) Options {
	opts := DefaultOptions()
	opts.GEMMDim = 16
	opts.PiSteps = []int{6_400, 12_800, 19_200}
	opts.SimCfg.ThreadStart = 4000
	opts.Quiet = true
	opts.Workers = workers
	return opts
}

func TestParallelRunnersAreDeterministic(t *testing.T) {
	type experiment struct {
		name string
		run  func(opts Options) (string, error)
	}
	experiments := []experiment{
		{"overhead", func(opts Options) (string, error) {
			r, err := RunOverhead(context.Background(), opts.Workers)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"speedups", func(opts Options) (string, error) {
			r, err := RunSpeedups(context.Background(), opts)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"phases", func(opts Options) (string, error) {
			r, err := RunPhases(context.Background(), opts)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"pi", func(opts Options) (string, error) {
			r, err := RunPi(context.Background(), opts)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"threads", func(opts Options) (string, error) {
			r, err := RunThreadScaling(context.Background(), opts, []int{1, 2, 4})
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
	}
	for _, ex := range experiments {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			seq, err := ex.run(detOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := ex.run(detOpts(4))
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("parallel output differs from sequential:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
			}
		})
	}
}

// The compile cache must hand back the same program for repeated builds of
// the same design point, and distinct programs for distinct points.
func TestCompileCacheSharing(t *testing.T) {
	a, err := buildGEMM(context.Background(), workloads.GEMMNaive, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildGEMM(context.Background(), workloads.GEMMNaive, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same design point compiled twice")
	}
	c, err := buildGEMM(context.Background(), workloads.GEMMNaive, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different thread counts shared one program")
	}
}
