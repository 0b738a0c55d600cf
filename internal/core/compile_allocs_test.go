package core

import (
	"runtime"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/schedule"
	"paravis/internal/workloads"
)

// compileLayers are the four layers of Build's compile path, in order.
var compileLayers = []string{"parse", "lower", "schedule", "hw"}

// compileCeilings are TestCompileAllocs' per-layer ceilings.
var compileCeilings = []float64{414, 1651, 183, 1510}

// seedCompile is one seed unit carried through the four layers.
type seedCompile struct {
	name  string
	src   string
	opts  minic.Options
	prog  *minic.Program
	k     *ir.Kernel
	sched *schedule.Schedule
}

func (c *seedCompile) layer(tb testing.TB, i int) {
	var err error
	switch i {
	case 0:
		_, err = minic.Parse(c.src, c.opts)
	case 1:
		_, err = lower.Lower(c.prog)
	case 2:
		_, err = schedule.Build(c.k, schedule.DefaultConfig())
	case 3:
		_, err = hw.Compile(c.k, c.sched)
	}
	if err != nil {
		tb.Fatalf("%s %s: %v", c.name, compileLayers[i], err)
	}
}

// seedCompiles compiles every seed unit once, keeping each layer's input.
func seedCompiles(tb testing.TB) []*seedCompile {
	var cs []*seedCompile
	for _, u := range workloads.Units() {
		c := &seedCompile{name: u.Name, src: u.Source, opts: minic.Options{Defines: u.Defines}}
		var err error
		if c.prog, err = minic.Parse(c.src, c.opts); err == nil {
			if c.k, err = lower.Lower(c.prog); err == nil {
				c.sched, err = schedule.Build(c.k, schedule.DefaultConfig())
			}
		}
		if err != nil {
			tb.Fatalf("%s: %v", u.Name, err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestCompileAllocs pins what the compile path allocates per layer, summed
// over the six seed units. Each ceiling is the count measured when the
// back end moved its per-node facts into ID-indexed tables, plus 5 %:
// parse 2,026, lower 2,874, schedule 174, hw 1,438 (before: 2,026, 4,984,
// 2,574 and 2,390). The parse and lower ceilings were then set from the
// counts measured when the front half moved onto per-parse slabs and
// DeclID/loop-ID tables: parse 394, lower 1,572.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	var total [4]float64
	for _, c := range seedCompiles(t) {
		var row [4]float64
		for i := range compileLayers {
			row[i] = testing.AllocsPerRun(5, func() { c.layer(t, i) })
			total[i] += row[i]
		}
		t.Logf("%-30s parse %6.0f  lower %6.0f  schedule %6.0f  hw %6.0f", c.name, row[0], row[1], row[2], row[3])
	}
	t.Logf("%-30s parse %6.0f  lower %6.0f  schedule %6.0f  hw %6.0f", "total", total[0], total[1], total[2], total[3])
	for i, name := range compileLayers {
		if total[i] > compileCeilings[i] {
			t.Errorf("%s allocates %.0f objects over the six seeds, ceiling %.0f", name, total[i], compileCeilings[i])
		}
	}
}

// BenchmarkBuildSeeds compiles the six seed units once per op and reports
// each layer's allocations per op beside the total (-benchmem). The layer
// counts come from runtime.MemStats around each call, so ns/op includes
// those reads.
func BenchmarkBuildSeeds(b *testing.B) {
	cs := seedCompiles(b)
	b.ReportAllocs()
	var total [4]uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, c := range cs {
			for i := range compileLayers {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				c.layer(b, i)
				runtime.ReadMemStats(&ms)
				total[i] += ms.Mallocs - before
			}
		}
	}
	for i, name := range compileLayers {
		b.ReportMetric(float64(total[i])/float64(b.N), name+"-allocs/op")
	}
}
