package staticcheck

import (
	"paravis/internal/ir"
	"paravis/internal/minic"
	"paravis/internal/perfbound"
	"paravis/internal/schedule"
)

// CheckPerf runs the perf-bound rule: the static performance model of
// internal/perfbound over a scheduled kernel, turned into diagnostics.
// env supplies scalar launch parameters for trip-count folding (nil
// leaves data-dependent loops unbounded — the structural findings still
// fire). All findings are informational or warnings: they describe
// performance ceilings, not defects.
//
// It has no product caller; kept for benchmark/static_sweep.go until the
// benchmark's (d) in ROADMAP.md.
func CheckPerf(file string, k *ir.Kernel, s *schedule.Schedule, env map[string]int64) []Diagnostic {
	return PerfDiagnostics(file, perfbound.Analyze(k, s, env, perfbound.DefaultConfig()))
}

// PerfDiagnostics converts an analysis report into perf-bound
// diagnostics. A caller that publishes the report passes that same report,
// so the cycle counts the findings quote are the ones beside them.
func PerfDiagnostics(file string, rep *perfbound.Report) []Diagnostic {
	var ds []Diagnostic
	for _, l := range rep.Loops {
		// Unparsable names (none today) report at position 0:0.
		pos, _ := minic.ParseLoopName(l.Name)
		for _, pc := range l.PortConflicts {
			ds = append(ds, diag(file, pos, RulePerfBound, SevInfo,
				"achievable II limited to %d by port conflict on array %s (single BRAM port, %d accesses per iteration)",
				pc.Accesses, pc.Array, pc.Accesses))
		}
		if l.MemBound {
			sev := SevWarning
			remedy := ActionBlockInBRAM
			if l.LocalPerIter > 0 {
				// The working set is already staged locally; the residual
				// DRAM traffic is the block transfer itself — overlap it.
				sev = SevInfo
				remedy = ActionDoubleBuffer
			}
			ds = append(ds, diag(file, pos, RulePerfBound, sev,
				"loop is memory-bound: %d external bytes per iteration across %d threads exceeds the %0.f-byte bus per %d-cycle iteration; %s",
				l.ExtBytesPerIter, rep.NumThreads, rep.Roofline.PeakBytesPerCycle, l.IIThread, remedy))
		}
	}
	if rep.Roofline.MemoryBound {
		ds = append(ds, diag(file, minic.Pos{}, RulePerfBound, SevWarning,
			"kernel is memory-bound: DRAM needs >= %d cycles vs >= %d compute cycles (demand %.2f B/cycle, peak %.0f); %s",
			rep.Roofline.MemoryCycles, rep.Roofline.ComputeCycles,
			rep.Roofline.DemandBytesPerCycle, rep.Roofline.PeakBytesPerCycle, ActionBlockInBRAM))
	}
	if rep.Overflow.Risk {
		ds = append(ds, diag(file, minic.Pos{}, RulePerfBound, SevWarning,
			"profile buffers at risk of overflow: flush demand %.3f B/cycle exceeds the %.2f B/cycle the kernel leaves free; raise the sample period or enlarge the buffers",
			rep.Overflow.EventBytesPerCycle+rep.Overflow.StateBytesPerCycle,
			rep.Overflow.SpareBytesPerCycle))
	}
	Sort(ds)
	return ds
}
