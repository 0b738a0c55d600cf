// Package advisor turns a profiled run into optimization guidance — the
// paper's central claim operationalized ("demonstrating how the tool can be
// used to provide unique insights into application execution and how it can
// be used to guide optimizations"), and a step toward its stated future
// work of profile-guided optimization in the HLS compiler.
//
// Each rule reads the same signals a developer reads off the Paraver
// views: state residency (serialization through critical sections), the
// granularity of memory requests (narrow scalar accesses), the stall share
// (memory-boundness), the load/compute phase structure (blocking without
// prefetch) and the thread activity windows (launch-overhead domination).
// The diagnoses for the paper's five GEMM versions reproduce §V-C's
// narrative step by step: each version's top finding is the optimization
// the authors apply next.
package advisor

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"paravis/internal/core"
	"paravis/internal/depend"
	"paravis/internal/paraver"
	"paravis/internal/paraver/analysis"
	"paravis/internal/profile"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
)

// Severity ranks findings.
type Severity int

// Severities, in ascending order.
const (
	Info Severity = iota
	Minor
	Major
	Critical
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Minor:
		return "minor"
	case Major:
		return "major"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Kind identifies the diagnosis.
type Kind string

// Diagnosis kinds. Each maps to one optimization step of the paper.
const (
	KindLockSerialization Kind = "lock-serialization" // v1 -> v2
	KindNarrowAccesses    Kind = "narrow-accesses"    // v2 -> v3
	KindMemoryBound       Kind = "memory-bound"       // v3 -> v4
	KindDistinctPhases    Kind = "distinct-phases"    // v4 -> v5
	KindLaunchOverhead    Kind = "launch-overhead"    // pi, Figs. 11-13
	KindLoadImbalance     Kind = "load-imbalance"
	KindHealthy           Kind = "healthy"
)

// Remedy is the machine-actionable form of a finding's suggested fix:
// the base wording, the internal/transform pass that implements it
// mechanically (when one does), suggested pass parameters, and the
// legality verdict the dependence engine assigned once gated. The human
// string every report prints is derived from this struct by Render, so
// the wording lives in exactly one place.
type Remedy struct {
	// Action is the base human wording of the fix. Where a static check
	// predicts the same bottleneck it is the shared staticcheck.Action*
	// constant, verbatim — the cross-check tests compare bytes.
	Action string
	// Pass names the internal/transform pass that applies the fix
	// ("redistribute", "vectorize", "block-bram", "double-buffer");
	// empty when the fix is not a mechanical source transformation.
	Pass string
	// Params suggests parameters for the pass (e.g. a block size).
	Params map[string]int64
	// Legality is the dependence engine's verdict for Pass on the
	// diagnosed region; meaningful only after AdviseProgram's gate ran.
	Legality depend.Tri
	// Why names the blocking dependence when Legality is not Proven.
	Why string
	// gated records that the legality gate actually ran, so Render
	// knows Legality is a verdict rather than a zero value.
	gated bool
}

// Render derives the rendered action string from the struct. The exact
// wording is load-bearing: proven remedies pass through verbatim (the
// static/dynamic cross-check depends on it), undecided ones gain an
// annotation, illegal ones are withheld with the blocker named.
func (r Remedy) Render() string {
	if !r.gated || r.Legality == depend.Proven {
		return r.Action
	}
	if r.Legality == depend.Illegal {
		return fmt.Sprintf("suggested remedy is provably illegal here (%s); the bottleneck is real but needs an algorithm-level restructuring instead. Stock remedy withheld: %s", r.Why, r.Action)
	}
	return fmt.Sprintf("%s (legality not proven: %s)", r.Action, r.Why)
}

// Finding is one diagnosis with its evidence and suggested remedy.
type Finding struct {
	Kind     Kind
	Severity Severity
	// Evidence is the measured signal that triggered the rule.
	Evidence string
	// Remedy is the suggested restructuring, phrased like §V-C.
	Remedy Remedy
	// Score orders findings of equal severity (higher = stronger signal).
	Score float64
}

// Action is the rendered remedy string the reports print.
func (f Finding) Action() string { return f.Remedy.Render() }

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s -> %s", f.Severity, f.Kind, f.Evidence, f.Action())
}

// Thresholds tune the rules; zero values take defaults.
type Thresholds struct {
	// SpinCriticalPct flags lock serialization when spin+critical share
	// exceeds this percentage (default 1.0 — the paper acts on ~3%).
	SpinCriticalPct float64
	// NarrowBytes flags scalar-grained traffic when the average accepted
	// request moves at most this many bytes (default 8).
	NarrowBytes float64
	// StallFrac flags memory-boundness when stall cycles exceed this
	// fraction of total thread cycles (default 0.4).
	StallFrac float64
	// OverlapFrac flags missing prefetch when load/compute overlap is
	// below this (default 0.15) while distinct phases exist.
	OverlapFrac float64
	// ParallelFrac flags launch-overhead domination when the all-threads-
	// active window is below this fraction of the run (default 0.5).
	ParallelFrac float64
	// ImbalanceFrac flags imbalance when the busiest thread runs this much
	// longer than the least busy (default 0.25).
	ImbalanceFrac float64
}

func (t Thresholds) withDefaults() Thresholds {
	if t.SpinCriticalPct == 0 {
		t.SpinCriticalPct = 1.0
	}
	if t.NarrowBytes == 0 {
		t.NarrowBytes = 8
	}
	if t.StallFrac == 0 {
		t.StallFrac = 0.4
	}
	if t.OverlapFrac == 0 {
		t.OverlapFrac = 0.15
	}
	if t.ParallelFrac == 0 {
		t.ParallelFrac = 0.5
	}
	if t.ImbalanceFrac == 0 {
		t.ImbalanceFrac = 0.25
	}
	return t
}

// Advise analyzes a profiled run and returns findings ordered by severity,
// strongest first. A healthy run yields a single Info finding.
func Advise(out *core.RunOutput, th Thresholds) []Finding {
	th = th.withDefaults()
	var findings []Finding
	r := out.Result
	// One fold serves every trace-derived rule: state residency, total
	// traffic, and thread 0's event series in 256-cycle windows (rule 4).
	ss := analysis.NewStreamStatsWidth(0, 256, 0)
	err := errors.New("no trace available (profiling disabled)")
	if out.Streams != nil && r != nil {
		err = out.Streams.Scan(ss)
	}
	if err != nil {
		return []Finding{{
			Kind: KindHealthy, Severity: Info,
			Evidence: err.Error(),
			Remedy:   Remedy{Action: "enable the profiling unit to collect states and events"},
		}}
	}

	// Rule 1: serialization through the hardware semaphore (Fig. 6).
	prof := ss.StateProfileTask(0)
	spinPct := 100 * prof.TotalFraction[profile.StateSpinning]
	critPct := 100 * prof.TotalFraction[profile.StateCritical]
	if spinPct+critPct > th.SpinCriticalPct && r.LockAcquisitions > 0 {
		findings = append(findings, Finding{
			Kind:     KindLockSerialization,
			Severity: severityByScale(spinPct+critPct, th.SpinCriticalPct),
			Evidence: fmt.Sprintf("%.2f%% of thread time in critical sections and %.2f%% spinning (%d acquisitions, %d contended)",
				critPct, spinPct, r.LockAcquisitions, r.LockContended),
			Remedy: Remedy{
				Action: "restructure the work distribution so threads own disjoint outputs and the critical section disappears (paper §V-C, version 2)",
				Pass:   transform.PassRedistribute,
			},
			Score: spinPct + critPct,
		})
	}

	// Rule 2: narrow memory requests waste the 512-bit bus (Fig. 7).
	// Only datapath traffic counts; the profiling unit's own flushes are
	// full bus lines and would mask the signal. Fully scalar traffic
	// (one element per request) is graded critical.
	// Kernels that barely touch memory (like the pi series) are exempt:
	// access width cannot be their bottleneck.
	memIntensity := 0.0
	if r.Cycles > 0 {
		memIntensity = float64(r.DRAM.ThreadWordsMoved*4) / float64(r.Cycles)
	}
	if r.DRAM.ThreadTransactions >= 64 && memIntensity > 0.01 {
		avgBytes := float64(r.DRAM.ThreadWordsMoved*4) / float64(r.DRAM.ThreadTransactions)
		if avgBytes <= th.NarrowBytes {
			sev := Major
			if avgBytes <= 4.5 {
				sev = Critical
			}
			findings = append(findings, Finding{
				Kind:     KindNarrowAccesses,
				Severity: sev,
				Evidence: fmt.Sprintf("average memory request moves %.1f bytes on a %d-byte bus", avgBytes, 64),
				// Shared wording with the static stall-lint rule so the
				// compile-time prediction and this profiled diagnosis can be
				// cross-checked verbatim.
				Remedy: Remedy{Action: staticcheck.ActionNarrowAccesses, Pass: transform.PassVectorize},
				Score:  th.NarrowBytes - avgBytes + 1,
			})
		}
	}

	// Rule 3: memory-boundness — stalls dominate (the paper's stall event).
	var busy int64
	for t := 0; t < len(r.ThreadEnd); t++ {
		busy += r.ThreadEnd[t] - r.ThreadStart[t]
	}
	if busy > 0 {
		stallFrac := float64(r.TotalStalls()) / float64(busy)
		if stallFrac > th.StallFrac {
			sev := severityByScale(100*stallFrac, 100*th.StallFrac)
			remedy := Remedy{Action: staticcheck.ActionBlockInBRAM, Pass: transform.PassBlockBRAM}
			// If local memory already dominates the traffic, blocking is
			// in place: the residual stalls are the block loads themselves.
			if r.BRAMWordsMoved > 2*r.DRAM.ThreadWordsMoved {
				sev = Minor
				remedy = Remedy{Action: "the working set is already staged in BRAM; remaining stalls are block prefetches — consider wider bursts or a deeper outstanding-request window"}
			}
			findings = append(findings, Finding{
				Kind:     KindMemoryBound,
				Severity: sev,
				Evidence: fmt.Sprintf("%.0f%% of active thread cycles are pipeline stalls on variable-latency operations", 100*stallFrac),
				Remedy:   remedy,
				Score:    stallFrac,
			})
		}
	}

	// Rule 4: distinct load/compute phases without prefetch (Fig. 8).
	ph := analysis.ClassifyPhases(ss.MemSeries(), ss.Series(paraver.EventFpOps), 0.05, 0.05)
	active := ph.MemOnly + ph.ComputeOnly + ph.Both
	if active > 10 && ph.MemOnly > active/10 && ph.Overlap() < th.OverlapFrac {
		findings = append(findings, Finding{
			Kind:     KindDistinctPhases,
			Severity: Major,
			Evidence: fmt.Sprintf("thread 0 alternates %d load-only and %d compute-only windows with only %.0f%% overlapped",
				ph.MemOnly, ph.ComputeOnly, 100*ph.Overlap()),
			// Shared wording with the static perf-bound rule (see
			// staticcheck.ActionDoubleBuffer).
			Remedy: Remedy{Action: staticcheck.ActionDoubleBuffer, Pass: transform.PassDoubleBuffer},
			Score:  1 - ph.Overlap(),
		})
	}

	// Rule 5: launch overhead dominates (Figs. 11-13).
	if n := len(r.ThreadStart); n > 1 && r.Cycles > 0 {
		lastStart := r.ThreadStart[n-1]
		firstEnd := r.ThreadEnd[0]
		for _, e := range r.ThreadEnd {
			if e < firstEnd {
				firstEnd = e
			}
		}
		parallel := float64(firstEnd-lastStart) / float64(r.Cycles)
		if parallel < 0 {
			parallel = 0
		}
		if parallel < th.ParallelFrac {
			sev := Major
			if firstEnd <= lastStart {
				sev = Critical
			}
			findings = append(findings, Finding{
				Kind:     KindLaunchOverhead,
				Severity: sev,
				Evidence: fmt.Sprintf("all threads are simultaneously active for only %.0f%% of the run (software thread-start overhead)", 100*parallel),
				Remedy:   Remedy{Action: "increase the work per launch or batch launches; the host starts threads sequentially over the slave interface (paper §V-D)"},
				Score:    1 - parallel,
			})
		}
	}

	// Rule 6: load imbalance across threads.
	if n := len(r.ThreadEnd); n > 1 {
		var minBusy, maxBusy int64 = 1<<62 - 1, 0
		for t := 0; t < n; t++ {
			b := r.ThreadEnd[t] - r.ThreadStart[t]
			if b < minBusy {
				minBusy = b
			}
			if b > maxBusy {
				maxBusy = b
			}
		}
		if minBusy > 0 && float64(maxBusy-minBusy)/float64(maxBusy) > th.ImbalanceFrac {
			findings = append(findings, Finding{
				Kind:     KindLoadImbalance,
				Severity: Minor,
				Evidence: fmt.Sprintf("busiest thread active %d cycles, least busy %d", maxBusy, minBusy),
				Remedy:   Remedy{Action: "redistribute iterations so threads receive equal work"},
				Score:    float64(maxBusy-minBusy) / float64(maxBusy),
			})
		}
	}

	if len(findings) == 0 {
		findings = append(findings, Finding{
			Kind: KindHealthy, Severity: Info,
			Evidence: fmt.Sprintf("no dominant bottleneck: %.2f%% lock time, %.3f B/cycle sustained",
				spinPct+critPct, ss.AvgBandwidthBytesPerCycle()),
			Remedy: Remedy{Action: "profile at a larger problem size or a finer sampling period to expose secondary effects"},
		})
	}

	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Severity != findings[j].Severity {
			return findings[i].Severity > findings[j].Severity
		}
		return findings[i].Score > findings[j].Score
	})
	return findings
}

// AdviseProgram is Advise plus legality gating: remedies that propose a
// program transformation (vectorize, block in BRAM, double-buffer) are
// checked against the static dependence analysis of the kernel source,
// range-refined by the abstract interpreter where it converges (a "may"
// dependence between provably disjoint footprints is discharged, so the
// gate annotates fewer remedies as undecided).
// A remedy every candidate loop provably forbids is downgraded to an
// explanatory Info finding naming the blocking dependence — it never
// silently disappears, because the *diagnosis* (the measured bottleneck)
// remains true even when the stock remedy is illegal. A remedy whose
// legality could not be decided keeps its severity but is annotated.
func AdviseProgram(p *core.Program, out *core.RunOutput, th Thresholds) []Finding {
	findings := Advise(out, th)
	if p == nil || p.Fn == nil {
		return findings
	}
	rep := transform.LegalityReport(p.Fn, nil)
	for i := range findings {
		gateFinding(&findings[i], rep)
	}
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Severity != findings[j].Severity {
			return findings[i].Severity > findings[j].Severity
		}
		return findings[i].Score > findings[j].Score
	})
	return findings
}

// gateFinding applies the dependence engine's verdict for the transform
// pass a finding's remedy names. The remedy is applicable if SOME
// candidate loop admits it, so verdicts combine with the most
// permissive winning: Proven if any loop is proven, else Unknown if any
// is undecided, else Illegal.
func gateFinding(f *Finding, rep *depend.Report) {
	type pick func(l *depend.LoopDeps) (depend.Tri, string, bool)
	var choose pick
	switch f.Remedy.Pass {
	case transform.PassVectorize:
		// Vectorizing the loads widens accesses in loops that move scalar
		// DRAM traffic; it needs the same independence as unrolling.
		choose = func(l *depend.LoopDeps) (depend.Tri, string, bool) {
			return l.Legal.Unroll, l.Legal.UnrollWhy, hasDRAMAccess(l, true)
		}
	case transform.PassBlockBRAM:
		// Blocking stages the working set: a strip-mine-and-reorder, legal
		// under the tiling verdict.
		choose = func(l *depend.LoopDeps) (depend.Tri, string, bool) {
			return l.Legal.Tile, l.Legal.TileWhy, hasDRAMAccess(l, false)
		}
	case transform.PassDoubleBuffer:
		choose = func(l *depend.LoopDeps) (depend.Tri, string, bool) {
			return l.Legal.DoubleBuffer, l.Legal.DoubleBufferWhy, hasDRAMAccess(l, false)
		}
	default:
		// Redistribute's legality is re-proven by the pass itself when it
		// fires; remedies without a pass have nothing to gate.
		return
	}
	verdict := depend.Illegal
	why := ""
	candidates := 0
	for _, l := range rep.Loops {
		v, w, ok := choose(l)
		if !ok {
			continue
		}
		candidates++
		switch {
		case v == depend.Proven:
			verdict = depend.Proven
		case v == depend.Unknown && verdict != depend.Proven:
			verdict = depend.Unknown
			why = w
		case v == depend.Illegal && verdict == depend.Illegal && why == "":
			why = w
		}
	}
	if candidates == 0 {
		return // nothing to gate
	}
	f.Remedy.gated = true
	f.Remedy.Legality = verdict
	f.Remedy.Why = why
	if verdict == depend.Illegal {
		f.Severity = Info
	}
}

// hasDRAMAccess reports whether the loop touches a DRAM-backed array
// (scalarOnly: with at least one scalar-width access).
func hasDRAMAccess(l *depend.LoopDeps, scalarOnly bool) bool {
	for _, a := range l.Accesses {
		if a.DRAM && (!scalarOnly || a.Width <= 1) {
			return true
		}
	}
	return false
}

// severityByScale grades how far a signal exceeds its threshold.
func severityByScale(value, threshold float64) Severity {
	switch {
	case value > 8*threshold:
		return Critical
	case value > 2*threshold:
		return Major
	default:
		return Minor
	}
}

// Format renders findings as a report.
func Format(findings []Finding) string {
	var sb strings.Builder
	for i, f := range findings {
		fmt.Fprintf(&sb, "%d. [%s] %s\n   evidence: %s\n   action:   %s\n",
			i+1, f.Severity, f.Kind, f.Evidence, f.Action())
	}
	return sb.String()
}

// Top returns the first finding of the highest severity.
func Top(findings []Finding) Finding {
	if len(findings) == 0 {
		return Finding{Kind: KindHealthy, Severity: Info}
	}
	return findings[0]
}

// HasKind reports whether any finding carries the kind.
func HasKind(findings []Finding, k Kind) bool {
	for _, f := range findings {
		if f.Kind == k {
			return true
		}
	}
	return false
}
