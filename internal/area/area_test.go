package area

import (
	"testing"

	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/profile"
	"paravis/internal/schedule"
	"paravis/internal/workloads"
)

func buildSched(t testing.TB, src string, defines map[string]string) (*ir.Kernel, *schedule.Schedule) {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{Defines: defines})
	if err != nil {
		t.Fatal(err)
	}
	k, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(k, schedule.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, s
}

func TestEstimateBasicProperties(t *testing.T) {
	k, s := buildSched(t, workloads.GEMMSource(workloads.GEMMNaive), workloads.GEMMDefines(workloads.GEMMNaive))
	r := Estimate(k, s, profile.Config{Enabled: false})
	if r.ALMs <= 0 || r.Registers <= 0 {
		t.Fatalf("degenerate report %+v", r)
	}
	if r.FmaxMHz < 50 || r.FmaxMHz > 300 {
		t.Errorf("implausible Fmax %.1f MHz", r.FmaxMHz)
	}
	if r.DSPs == 0 {
		t.Error("GEMM without DSPs")
	}
}

func TestOverheadInPaperRange(t *testing.T) {
	// §V-B: register overhead <= 5.4% (geo-mean 2.41%), ALM overhead <= 4%
	// (geo-mean 3.42%), Fmax degradation of a few MHz. Our model must land
	// in the same regime for every GEMM version and for pi.
	var regPcts, almPcts []float64
	for _, v := range workloads.AllGEMMVersions {
		k, s := buildSched(t, workloads.GEMMSource(v), workloads.GEMMDefines(v))
		o := Overhead(k, s, profile.DefaultConfig())
		reg, alm, df := o.RegisterPct(), o.ALMPct(), o.FmaxDeltaMHz()
		t.Logf("%-22s regs +%.2f%%  ALMs +%.2f%%  Fmax -%.1f MHz (base %.0f)",
			v, reg, alm, df, o.Without.FmaxMHz)
		if reg <= 0 || reg > 8 {
			t.Errorf("%s: register overhead %.2f%% outside (0, 8]", v, reg)
		}
		if alm <= 0 || alm > 8 {
			t.Errorf("%s: ALM overhead %.2f%% outside (0, 8]", v, alm)
		}
		if df <= 0 || df > 15 {
			t.Errorf("%s: Fmax delta %.1f MHz outside (0, 15]", v, df)
		}
		regPcts = append(regPcts, reg)
		almPcts = append(almPcts, alm)
	}
	gmReg, gmALM := GeoMean(regPcts), GeoMean(almPcts)
	t.Logf("geo-mean: regs +%.2f%% (paper 2.41%%), ALMs +%.2f%% (paper 3.42%%)", gmReg, gmALM)
	if gmReg < 0.5 || gmReg > 6 {
		t.Errorf("geo-mean register overhead %.2f%% far from paper's 2.41%%", gmReg)
	}
	if gmALM < 0.5 || gmALM > 6 {
		t.Errorf("geo-mean ALM overhead %.2f%% far from paper's 3.42%%", gmALM)
	}

	// Pi (§V-B study 2): smaller overhead (1.3% regs, 1.5% ALMs, -1 MHz).
	k, s := buildSched(t, workloads.PiSource, workloads.PiDefines())
	o := Overhead(k, s, profile.DefaultConfig())
	t.Logf("pi: regs +%.2f%% ALMs +%.2f%% Fmax -%.1f MHz", o.RegisterPct(), o.ALMPct(), o.FmaxDeltaMHz())
	if o.RegisterPct() > 6 || o.ALMPct() > 6 {
		t.Errorf("pi overhead too large: %+v", o)
	}
}

func TestProfilingAlwaysCostsSomething(t *testing.T) {
	k, s := buildSched(t, workloads.PiSource, workloads.PiDefines())
	o := Overhead(k, s, profile.DefaultConfig())
	if o.With.ALMs <= o.Without.ALMs {
		t.Error("profiling added no ALMs")
	}
	if o.With.Registers <= o.Without.Registers {
		t.Error("profiling added no registers")
	}
	if o.With.BRAMBits <= o.Without.BRAMBits {
		t.Error("profiling added no buffer BRAM")
	}
	if o.With.FmaxMHz >= o.Without.FmaxMHz {
		t.Error("profiling did not reduce Fmax")
	}
}

func TestBiggerBuffersCostMoreBRAM(t *testing.T) {
	k, s := buildSched(t, workloads.PiSource, workloads.PiDefines())
	small := profile.DefaultConfig()
	small.StateBufferLines, small.EventBufferLines = 8, 8
	big := profile.DefaultConfig()
	big.StateBufferLines, big.EventBufferLines = 256, 256
	rs := Estimate(k, s, small)
	rb := Estimate(k, s, big)
	if rb.BRAMBits <= rs.BRAMBits {
		t.Errorf("buffer scaling broken: %d vs %d", rs.BRAMBits, rb.BRAMBits)
	}
}

func TestMoreComplexDesignIsBigger(t *testing.T) {
	kn, sn := buildSched(t, workloads.GEMMSource(workloads.GEMMNaive), workloads.GEMMDefines(workloads.GEMMNaive))
	kb, sb := buildSched(t, workloads.GEMMSource(workloads.GEMMDoubleBuffered), workloads.GEMMDefines(workloads.GEMMDoubleBuffered))
	off := profile.Config{Enabled: false}
	rn := Estimate(kn, sn, off)
	rb := Estimate(kb, sb, off)
	if rb.ALMs <= rn.ALMs {
		t.Errorf("double-buffered (%d ALMs) not bigger than naive (%d)", rb.ALMs, rn.ALMs)
	}
	if rb.BRAMBits <= rn.BRAMBits {
		t.Error("double-buffered should use more BRAM")
	}
	if rb.FmaxMHz >= rn.FmaxMHz {
		t.Error("bigger design should clock lower")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
}

func TestDeterminism(t *testing.T) {
	k, s := buildSched(t, workloads.GEMMSource(workloads.GEMMBlocked), workloads.GEMMDefines(workloads.GEMMBlocked))
	r1 := Estimate(k, s, profile.DefaultConfig())
	r2 := Estimate(k, s, profile.DefaultConfig())
	if r1 != r2 {
		t.Errorf("estimates differ: %+v vs %+v", r1, r2)
	}
}
