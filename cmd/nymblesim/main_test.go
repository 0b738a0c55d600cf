package main

import (
	"strings"
	"testing"
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
