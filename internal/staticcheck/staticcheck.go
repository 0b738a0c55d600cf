// Package staticcheck is a rule-based compile-time diagnostics engine over
// the minic AST (post-sema) and the lowered dataflow IR. It finds, before
// any synthesis or simulation, the defect classes the paper's dynamic
// profiling views expose after a run: unprotected shared writes in OpenMP
// target regions (omp-race), broken map clauses (omp-map), def-use
// anomalies in the statement CFG (use-before-init, dead-store, unused-var)
// and scalar DRAM traffic in hot inner loops (stall-lint, worded exactly
// like the dynamic advisor's narrow-accesses finding so static predictions
// can be cross-checked against profiled ones). The ir-verify rule wraps
// the hardened structural verifiers of internal/ir and internal/schedule.
package staticcheck

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"paravis/internal/absint"
	"paravis/internal/depend"
	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/schedule"
)

// Severity grades a diagnostic.
type Severity int

// Severities, ordered from least to most severe. A source is "vet clean"
// when it produces nothing above SevInfo.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON emits the lowercase severity name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Stable rule identifiers.
const (
	RuleOMPRace       = "omp-race"        // unprotected write to shared state in a parallel region
	RuleOMPMap        = "omp-map"         // missing/misdirected map clauses
	RuleUseBeforeInit = "use-before-init" // read of a maybe-uninitialized scalar
	RuleDeadStore     = "dead-store"      // assignment whose value is never read
	RuleUnusedVar     = "unused-var"      // declaration never referenced
	RuleStallLint     = "stall-lint"      // scalar DRAM access in an innermost loop body
	RuleIRVerify      = "ir-verify"       // structural IR/schedule verifier failure
	RuleFrontend      = "frontend"        // lex/parse/sema failure
	RuleLower         = "lower"           // lowering failure not explained by an AST rule
	RulePerfBound     = "perf-bound"      // static performance-bound findings (II, roofline, overflow)

	// Dependence-engine rules (see internal/depend and depend.go here).
	RuleLoopCarriedDep    = "loop-carried-dep"   // proven loop-carried dependence breaking a parallel/unrolled loop
	RuleBankConflict      = "bank-conflict"      // DRAM access stride maps every iteration to one bank
	RuleTransformLegality = "transform-legality" // a paper-ladder transformation is provably illegal for a loop

	// Abstract-interpretation rules (see internal/absint and absint.go here).
	RuleArrayOOB    = "array-oob"     // access proven out of bounds on every execution
	RuleArrayOOBMay = "array-oob-may" // access with a finite extent the analysis cannot prove safe
	RuleDivByZero   = "div-by-zero"   // divisor proven (error) or possibly (warning) zero
	RuleDeadBranch  = "dead-branch"   // branch or loop condition proven constant
)

// RuleInfo is the static metadata of one rule, published so report
// emitters (the SARIF writer in internal/api) can describe every rule
// the engine may fire without hard-coding the list twice.
type RuleInfo struct {
	ID      string // stable rule identifier
	Summary string // one-line description
	// DefaultSeverity is the severity the rule usually carries; rules
	// that grade per finding (div-by-zero) list their strongest level.
	DefaultSeverity Severity
}

// AllRules returns the full rule catalogue in a stable order.
func AllRules() []RuleInfo {
	return []RuleInfo{
		{RuleOMPRace, "unprotected write to shared state in a parallel region", SevError},
		{RuleOMPMap, "missing or misdirected map clause on the target region", SevError},
		{RuleUseBeforeInit, "read of a maybe-uninitialized scalar", SevWarning},
		{RuleDeadStore, "assignment whose value is never used", SevWarning},
		{RuleUnusedVar, "declaration never referenced", SevWarning},
		{RuleStallLint, "scalar DRAM access in an innermost loop body", SevInfo},
		{RuleIRVerify, "structural IR/schedule verifier failure", SevError},
		{RuleFrontend, "lex/parse/sema failure", SevError},
		{RuleLower, "lowering failure not explained by an AST rule", SevError},
		{RulePerfBound, "static performance-bound finding (II, roofline, overflow)", SevInfo},
		{RuleLoopCarriedDep, "proven loop-carried dependence breaking a parallel or unrolled loop", SevWarning},
		{RuleBankConflict, "DRAM access stride maps every iteration to one bank", SevInfo},
		{RuleTransformLegality, "a paper-ladder transformation is provably illegal for a loop", SevInfo},
		{RuleArrayOOB, "array or vector access proven out of bounds on every execution", SevError},
		{RuleArrayOOBMay, "array or vector access the interval analysis cannot prove in bounds", SevWarning},
		{RuleDivByZero, "divisor proven or possibly zero", SevError},
		{RuleDeadBranch, "branch or loop condition proven constant", SevWarning},
	}
}

// ActionNarrowAccesses is the remedy the dynamic advisor attaches to its
// narrow-accesses finding; stall-lint uses the identical wording so a
// static prediction and a profiled diagnosis can be cross-checked
// verbatim (see EXPERIMENTS.md).
const ActionNarrowAccesses = "vectorize the loads so each request fills a wider fraction of the bus (paper §V-C, version 3)"

// ActionBlockInBRAM and ActionDoubleBuffer are the remedies the dynamic
// advisor attaches to its memory-bound and distinct-phases findings; the
// static perf-bound rule uses the identical wording so a pre-simulation
// prediction and a profiled diagnosis can be cross-checked verbatim.
const (
	ActionBlockInBRAM  = "stage the working set in local BRAM (blocking) so compute reads on-chip memory instead of DRAM (paper §V-C, version 4)"
	ActionDoubleBuffer = "double-buffer: prefetch the next block into a second BRAM while computing on the current one (paper §V-C, version 5)"
)

// Diagnostic is one finding with a stable rule ID and a source position.
type Diagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
}

// String renders the canonical human-readable form:
// file:line:col: severity: [rule] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: [%s] %s", d.File, d.Line, d.Col, d.Severity, d.Rule, d.Message)
}

func diag(file string, pos minic.Pos, rule string, sev Severity, format string, args ...any) Diagnostic {
	return Diagnostic{
		File:     file,
		Line:     pos.Line,
		Col:      pos.Col,
		Rule:     rule,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Sort orders diagnostics by position, then severity (most severe first),
// then rule, then message — a stable order for golden files.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// Clean reports whether the diagnostics contain nothing above info level.
func Clean(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity > SevInfo {
			return false
		}
	}
	return true
}

// funcFacts is what the AST-level rules read about one function: its
// declaration table, its environment-free interpretation, its target
// region (nil when it has none) and the dependence report of that region
// once checkDepend has run.
type funcFacts struct {
	file string
	fn   *minic.FuncDecl
	ts   *minic.TargetStmt
	res  *resolution
	ai   *absint.Result
	dep  *depend.Report
}

// Facts are the analyses of the target function (the one minic.FindTarget
// returns) that CheckSource's rules read: its environment-free abstract
// interpretation and its range-refined dependence report. All fields are
// nil when the source does not parse or has no target region.
type Facts struct {
	Fn     *minic.FuncDecl
	Absint *absint.Result
	Depend *depend.Report
}

// funcRule is one AST-level check and the rule IDs it may emit.
type funcRule struct {
	rules  []string
	target bool // runs only on a function with a target region
	check  func(f *funcFacts, ds *[]Diagnostic)
}

// funcRules are the AST-level checks in the order CheckProgram runs them.
var funcRules = []funcRule{
	{rules: []string{RuleUnusedVar}, check: func(f *funcFacts, ds *[]Diagnostic) { checkUnused(f.file, f.res, ds) }},
	{rules: []string{RuleUseBeforeInit}, check: func(f *funcFacts, ds *[]Diagnostic) { checkUninit(f.file, f.res, ds) }},
	{rules: []string{RuleDeadStore}, check: func(f *funcFacts, ds *[]Diagnostic) { checkDeadStores(f.file, f.res, f.ai, ds) }},
	{rules: []string{RuleArrayOOB, RuleArrayOOBMay, RuleDivByZero, RuleDeadBranch},
		check: func(f *funcFacts, ds *[]Diagnostic) { checkAbsint(f.file, f.ai, ds) }},
	{rules: []string{RuleOMPRace, RuleOMPMap}, target: true,
		check: func(f *funcFacts, ds *[]Diagnostic) { checkOMP(f.file, f.res, f.ts, ds) }},
	{rules: []string{RuleStallLint}, target: true,
		check: func(f *funcFacts, ds *[]Diagnostic) { checkStalls(f.file, f.res, f.ts, ds) }},
	{rules: []string{RuleLoopCarriedDep, RuleBankConflict, RuleTransformLegality}, target: true,
		check: func(f *funcFacts, ds *[]Diagnostic) { f.dep = checkDepend(f.file, f.fn, f.ai, ds) }},
}

// canError reports whether the check may emit an error: whether the
// catalogue grades any of its rules SevError.
func (r funcRule) canError() bool {
	for _, info := range AllRules() {
		if info.DefaultSeverity == SevError && slices.Contains(r.rules, info.ID) {
			return true
		}
	}
	return false
}

// runFuncRules runs the selected AST-level checks over every function and
// returns the facts they read about the target function.
func runFuncRules(file string, prog *minic.Program, keep func(funcRule) bool) ([]Diagnostic, Facts) {
	var ds []Diagnostic
	var target Facts
	for _, fn := range prog.Funcs {
		f := &funcFacts{file: file, fn: fn, ts: minic.TargetOf(fn), res: resolve(fn),
			ai: absint.Analyze(fn, absint.Options{})}
		for _, r := range funcRules {
			if keep(r) && (!r.target || f.ts != nil) {
				r.check(f, &ds)
			}
		}
		if f.ts != nil {
			target = Facts{Fn: fn, Absint: f.ai, Depend: f.dep}
		}
	}
	Sort(ds)
	return ds, target
}

// CheckProgram runs every AST-level rule over a parsed, sema-checked
// program: def-use dataflow lints and the abstract-interpretation rules
// on all functions, and the OpenMP, stall and dependence rules on the
// target region if one exists. Beside the diagnostics it returns the
// target function's facts those rules read.
func CheckProgram(file string, prog *minic.Program) ([]Diagnostic, Facts) {
	return runFuncRules(file, prog, func(funcRule) bool { return true })
}

// CheckErrors is the SevError subset of CheckProgram, in the same order:
// it runs only the checks whose rules can emit errors, so a caller that
// only asks "does anything reject this program" skips the dependence
// analysis and the def-use lints.
func CheckErrors(file string, prog *minic.Program) []Diagnostic {
	ds, _ := runFuncRules(file, prog, funcRule.canError)
	return slices.DeleteFunc(ds, func(d Diagnostic) bool {
		return d.Severity != SevError
	})
}

// CheckKernel runs the ir-verify rule: the hardened structural IR
// verifier, and the schedule verifier when a schedule is supplied.
func CheckKernel(file string, k *ir.Kernel, s *schedule.Schedule) []Diagnostic {
	var ds []Diagnostic
	if k != nil {
		if err := ir.Validate(k); err != nil {
			ds = append(ds, diag(file, minic.Pos{}, RuleIRVerify, SevError, "ir verification failed: %v", err))
		}
	}
	if s != nil {
		if err := s.Validate(); err != nil {
			ds = append(ds, diag(file, minic.Pos{}, RuleIRVerify, SevError, "schedule verification failed: %v", err))
		}
	}
	return ds
}

// CheckSource runs the full vet pipeline on MiniC source: parse + sema,
// the AST rules, then — when the AST rules found no errors — lowering,
// scheduling and the ir-verify rule. Frontend failures become a single
// "frontend" diagnostic; lowering failures not already explained by an
// AST-level error become a "lower" diagnostic. Beside the diagnostics it
// returns CheckProgram's facts, kept even when the AST rules found errors.
func CheckSource(file, src string, opts minic.Options) ([]Diagnostic, Facts) {
	prog, err := minic.Parse(src, opts)
	if err != nil {
		return []Diagnostic{frontendDiag(file, err)}, Facts{}
	}
	ds, facts := CheckProgram(file, prog)
	if slices.ContainsFunc(ds, func(d Diagnostic) bool { return d.Severity == SevError }) {
		return ds, facts
	}
	k, err := lower.Lower(prog)
	if err != nil {
		pos := minic.Pos{}
		var le *lower.Error
		if errors.As(err, &le) {
			pos = le.Pos
		}
		ds = append(ds, diag(file, pos, RuleLower, SevError, "%v", err))
		Sort(ds)
		return ds, facts
	}
	s, err := schedule.Build(k, schedule.DefaultConfig())
	if err != nil {
		ds = append(ds, diag(file, minic.Pos{}, RuleIRVerify, SevError, "%v", err))
		Sort(ds)
		return ds, facts
	}
	ds = append(ds, CheckKernel(file, k, s)...)
	Sort(ds)
	return ds, facts
}

// frontendDiag converts a lex/parse/sema error into a diagnostic,
// preserving its position when the error carries one.
func frontendDiag(file string, err error) Diagnostic {
	pos := minic.Pos{}
	msg := err.Error()
	var pe *minic.ParseError
	var se *minic.SemaError
	var le *minic.LexError
	switch {
	case errors.As(err, &pe):
		pos, msg = pe.Pos, pe.Msg
	case errors.As(err, &se):
		pos, msg = se.Pos, se.Msg
	case errors.As(err, &le):
		pos, msg = le.Pos, le.Msg
	}
	return diag(file, pos, RuleFrontend, SevError, "%s", msg)
}
