package staticcheck

// Dependence-engine rules. These are the vet-time consumers of
// internal/depend: they turn proven dependence facts into diagnostics.
// All three rules act only on facts the engine PROVES — a "may" answer
// never produces a finding here (the full lattice, including unknowns,
// is exported through the machine-readable depend report instead), so
// the seed kernels and examples stay vet-clean.

import (
	"strings"

	"paravis/internal/absint"
	"paravis/internal/depend"
	"paravis/internal/mem"
	"paravis/internal/minic"
)

// checkDepend runs the dependence analysis over the target region and
// emits the loop-carried-dep, bank-conflict and transform-legality
// findings. The abstract-interpretation result serves as depend's range
// oracle: proven element-index ranges let "may" dependences between
// provably disjoint accesses be discharged.
func checkDepend(file string, fn *minic.FuncDecl, ai *absint.Result, ds *[]Diagnostic) {
	rep := depend.AnalyzeRanges(fn, nil, ai.IndexRange)
	dram := mem.DefaultDRAMConfig()
	bankPeriodBytes := int64(dram.Banks * dram.BeatBytes)
	for _, l := range rep.Loops {
		pos := minic.Pos{Line: l.Line, Col: l.Col}

		// loop-carried-dep: iterations that were distributed (across omp
		// threads) or replicated (by #pragma unroll) are provably not
		// independent. The omp thread-taint checker cannot see these: the
		// subscripts ARE thread-dependent, just not disjoint.
		for _, d := range l.Deps {
			if !d.Proven {
				continue
			}
			if d.CrossThread {
				*ds = append(*ds, diag(file, pos, RuleLoopCarriedDep, SevWarning,
					"iterations of this thread-distributed loop are not independent: %s crosses omp threads — threads race on %q without a critical section", d.Describe(), d.Array))
			} else if l.Unroll > 0 {
				*ds = append(*ds, diag(file, pos, RuleLoopCarriedDep, SevWarning,
					"loop is unrolled %dx but its iterations are not independent: %s", l.Unroll, d.Describe()))
			}
		}

		// transform-legality: a remedy from the paper's ladder is provably
		// inapplicable here. Unknowns are not reported (the JSON report
		// carries them); proven blockers are worth a line.
		var illegal []string
		if l.Legal.Unroll == depend.Illegal {
			illegal = append(illegal, "unroll/vectorize ("+l.Legal.UnrollWhy+")")
		}
		if l.Legal.Tile == depend.Illegal {
			illegal = append(illegal, "tile ("+l.Legal.TileWhy+")")
		}
		if l.Legal.DoubleBuffer == depend.Illegal {
			illegal = append(illegal, "double-buffer ("+l.Legal.DoubleBufferWhy+")")
		}
		if len(illegal) > 0 {
			*ds = append(*ds, diag(file, pos, RuleTransformLegality, SevInfo,
				"provably illegal transformations for this loop: %s", strings.Join(illegal, "; ")))
		}

		// bank-conflict: the modeled board interleaves its banks at
		// bus-beat granularity, so a DRAM access stream whose stride is a
		// multiple of Banks*BeatBytes lands every request on the same bank
		// and serializes on it.
		for _, a := range l.Accesses {
			if !a.DRAM || !a.StrideKnown || a.Stride == 0 {
				continue
			}
			strideBytes := a.Stride * mem.WordBytes
			if strideBytes < 0 {
				strideBytes = -strideBytes
			}
			if strideBytes%bankPeriodBytes != 0 {
				continue
			}
			*ds = append(*ds, diag(file, minic.Pos{Line: a.Line, Col: a.Col}, RuleBankConflict, SevInfo,
				"every iteration of this loop hits the same DRAM bank of %q (stride %d bytes is a multiple of the %d-byte bank interleave, %d banks x %d-byte beats): requests serialize on one bank",
				a.Array, strideBytes, bankPeriodBytes, dram.Banks, dram.BeatBytes))
		}
	}
}
