package main

import (
	"context"
	"strings"
	"testing"

	"paravis/internal/cli"
	"paravis/internal/core"
	"paravis/internal/sim"
)

// Two loops with the same stall count used to print in map-iteration
// order (gemm-blocked has such a pair), so the same run could print two
// different tables.
func TestStallHotspotsTieOrder(t *testing.T) {
	byLoop := map[string]int64{"for@21:3": 1024, "for@9:3": 1024, "for@30:5": 4096, "for@12:7": 1024}
	want := "stall hotspots by source loop:\n" +
		"  for@30:5                     4096 stall cycles (57.1%)\n" +
		"  for@12:7                     1024 stall cycles (14.3%)\n" +
		"  for@21:3                     1024 stall cycles (14.3%)\n" +
		"  for@9:3                      1024 stall cycles (14.3%)\n"
	for run := 0; run < 20; run++ {
		var sb strings.Builder
		printStallHotspots(&sb, byLoop, 7168)
		if sb.String() != want {
			t.Fatalf("run %d:\n%s\nwant:\n%s", run, sb.String(), want)
		}
	}
	var sb strings.Builder
	printStallHotspots(&sb, nil, 0)
	if sb.Len() != 0 {
		t.Fatalf("empty table printed %q", sb.String())
	}
}

// A kernel writing back two float and two int scalars used to print its
// result lines in map-iteration order.
func TestResultsPrintInNameOrder(t *testing.T) {
	const src = `
void two(float zeta, float alpha, int omega, int beta) {
  #pragma omp target parallel map(tofrom:zeta, alpha, omega, beta) num_threads(1)
  {
    zeta = zeta + 1.0f;
    alpha = alpha + 2.0f;
    omega = omega + 3;
    beta = beta + 4;
  }
}
`
	ctx := context.Background()
	p, err := core.Build(ctx, src, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	args, err := cli.MakeArgs(p, map[string]int64{"omega": 1, "beta": 1}, map[string]float64{"zeta": 0.5, "alpha": 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Profile.Enabled = false
	out, err := p.Run(ctx, args, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := "result alpha = 2.5\nresult zeta = 1.5\nresult beta = 5\nresult omega = 4\n"
	for run := 0; run < 20; run++ {
		var sb strings.Builder
		printResults(&sb, out.Result.ScalarsOut, out.Result.ScalarsOutInt)
		if sb.String() != want {
			t.Fatalf("run %d:\n%s\nwant:\n%s", run, sb.String(), want)
		}
	}
}
