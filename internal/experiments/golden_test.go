package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"paravis/internal/advisor"
	"paravis/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden experiment reports")

// goldenOpts is testOpts with the ASCII views on and a smaller pi sweep,
// so the goldens pin timelines and sparklines as well as the numbers.
func goldenOpts() Options {
	opts := testOpts()
	opts.GEMMDim = 16
	opts.PiSteps = []int{6_400, 12_800}
	opts.Quiet = false
	return opts
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", name, path, got, want)
	}
}

// TestTraceReportsGolden pins every trace-derived report byte for byte:
// state residency, timelines, binned series, phase classification and the
// advisor's findings all come out of the trace fold, so a change to the
// fold that moves any number or glyph fails here.
func TestTraceReportsGolden(t *testing.T) {
	ctx := context.Background()
	opts := goldenOpts()

	fig6, err := RunFig6(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6", fig6.Format())

	fig7, err := RunSpeedups(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7", fig7.Format())

	phases, err := RunPhases(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "phases", phases.Format())

	pi, err := RunPi(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pi", pi.Format())

	for _, v := range []workloads.GEMMVersion{workloads.GEMMNaive, workloads.GEMMBlocked} {
		run := fig7.Runs[v]
		findings := advisor.AdviseProgram(run.Program, run.Out, advisor.Thresholds{})
		checkGolden(t, "advisor-"+v.String(), advisor.Format(findings))
	}
}
