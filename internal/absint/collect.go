package absint

import (
	"sort"

	"paravis/internal/interval"
	"paravis/internal/minic"
)

// Options configures one Analyze run.
type Options struct {
	// Env maps parameter names to known concrete values (nil = symbolic).
	Env map[string]int64
	// WidenDelay is how many visits a loop head gets before widening
	// kicks in; 0 means the default, negative means widen immediately
	// (used by the fuzzer's monotonicity check).
	WidenDelay int
}

// Verdict classifies one array/vector access.
type Verdict int

// Access verdicts, weakest to strongest claim.
const (
	Unchecked Verdict = iota // no finite extent to check against
	InBounds                 // proven within bounds on every execution
	MayOOB                   // has a finite extent but not provable
	OOB                      // proven out of bounds whenever executed
)

func (v Verdict) String() string {
	switch v {
	case InBounds:
		return "in-bounds"
	case MayOOB:
		return "may-oob"
	case OOB:
		return "oob"
	}
	return "unchecked"
}

// LoopFact summarizes one for statement.
type LoopFact struct {
	Loop *minic.ForStmt
	Name string // "for@line:col", the cross-package loop key
	Pos  minic.Pos
	// Reachable: control can reach the loop head at all.
	Reachable bool
	// BodyReachable: the body can execute at least once.
	BodyReachable bool
	// Trips brackets the per-entry iteration count (body executions per
	// arrival from outside the loop). Always sound; HasHi only when the
	// induction pattern was recognized with invariant bounds.
	Trips interval.Interval
}

// AccessFact is the bounds verdict for one array/vector access site.
type AccessFact struct {
	Node    minic.Expr // *minic.Index, *minic.VecElem or *minic.VecLoad
	Pos     minic.Pos
	Array   string
	Write   bool
	Verdict Verdict
	// BadDim/DimSize/Index describe the decisive subscript for messages:
	// the first dimension proven out (OOB) or not provable (MayOOB).
	BadDim  int
	DimSize int64
	Index   interval.Interval
	// Elem is the flattened scalar-word index of the first element
	// touched, in exactly depend's linearization, with Width words
	// touched from it. ElemOK gates both.
	Elem   interval.Interval
	Width  int64
	ElemOK bool
}

// DivFact is the divisor classification for one integer / or %.
type DivFact struct {
	Node       *minic.Binary
	Pos        minic.Pos
	IsRem      bool
	Divisor    interval.Interval
	ProvenZero bool // divisor is the constant 0
	MayZero    bool // divisor has finite range containing 0
}

// CondFact marks a branch condition proven constant.
type CondFact struct {
	Stmt        minic.Stmt // *minic.IfStmt or *minic.ForStmt
	Pos         minic.Pos
	IsLoop      bool
	AlwaysTrue  bool
	AlwaysFalse bool
}

// Result is the published analysis of one function. When OK is false
// the solver did not converge within budget and no facts are claimed.
type Result struct {
	OK       bool
	NT       int
	Loops    map[*minic.ForStmt]*LoopFact
	Accesses []*AccessFact
	Divs     []*DivFact
	Conds    []*CondFact

	access map[minic.Expr]*AccessFact
}

// Loop returns the fact for st, or nil.
func (r *Result) Loop(st *minic.ForStmt) *LoopFact {
	if r == nil || !r.OK {
		return nil
	}
	return r.Loops[st]
}

// Access returns the fact for an access node, or nil.
func (r *Result) Access(e minic.Expr) *AccessFact {
	if r == nil || !r.OK {
		return nil
	}
	return r.access[e]
}

// IndexRange reports the proven flattened first-element index range of
// an access node, in depend's scalar-word linearization.
func (r *Result) IndexRange(e minic.Expr) (lo, hi int64, ok bool) {
	f := r.Access(e)
	if f == nil || !f.ElemOK || !f.Elem.Bounded() {
		return 0, 0, false
	}
	return f.Elem.Lo, f.Elem.Hi, true
}

// TripHints returns finite per-entry trip brackets keyed by the shared
// loop name, for perfbound's evaluator.
func (r *Result) TripHints() map[string]interval.Interval {
	if r == nil || !r.OK {
		return nil
	}
	h := map[string]interval.Interval{}
	for _, lf := range r.Loops {
		if !lf.Reachable {
			h[lf.Name] = interval.Exact(0)
			continue
		}
		if lf.Trips.Bounded() {
			h[lf.Name] = lf.Trips
		}
	}
	if len(h) == 0 {
		return nil
	}
	return h
}

// Analyze runs the abstract interpreter over one function.
func Analyze(fn *minic.FuncDecl, opts Options) *Result {
	res, _ := analyze(fn, opts)
	return res
}

// analyze is Analyze that also returns the solved analysis, whose
// counters the package's tests and benchmarks read (nil when fn has no
// body).
func analyze(fn *minic.FuncDecl, opts Options) (*Result, *analysis) {
	if fn == nil || fn.Body == nil {
		return newResult(0), nil
	}
	r := resolveFn(fn)
	res := newResult(r.nt)
	a := newAnalysis(fn, r, opts.Env, widenDelay(opts.WidenDelay))
	if a.solve() {
		a.publish(res)
	}
	return res, a
}

func newResult(nt int) *Result {
	return &Result{
		NT:     nt,
		Loops:  map[*minic.ForStmt]*LoopFact{},
		access: map[minic.Expr]*AccessFact{},
	}
}

// widenDelay maps Options.WidenDelay to the head visits before widening.
func widenDelay(d int) int {
	switch {
	case d == 0:
		return defaultWidenDelay
	case d < 0:
		return 0
	}
	return d
}

// publish collects the facts of a converged analysis into res.
func (a *analysis) publish(res *Result) {
	res.OK = true
	col := &collector{
		a:   a,
		acc: map[minic.Expr]*accRec{},
		div: map[*minic.Binary]Val{},
		win: map[minic.Decl]*winRec{},
	}
	for _, bl := range a.g.rpo {
		f := &a.flows[bl.id]
		if !f.in.live {
			continue
		}
		copy(a.tmpOut, f.in.st)
		ev := &evaluator{a: a, st: a.tmpOut, inRegion: bl.inRegion, col: col}
		for _, ins := range bl.instrs {
			ev.instr(ins)
		}
		if bl.cond != nil {
			ev.expr(bl.cond)
		}
	}

	col.finishLoops(res)
	col.finishConds(res)
	col.finishAccesses(res)
	col.finishDivs(res)
}

// --- collector ---

type accRec struct {
	node  minic.Expr
	write bool
	vals  []Val // joined per subscript position (lane last where present)
}

type winRec struct {
	low Val
	len Val
}

type collector struct {
	a   *analysis
	acc map[minic.Expr]*accRec
	div map[*minic.Binary]Val
	win map[minic.Decl]*winRec
}

func (c *collector) record(node minic.Expr, vals []Val, write bool) {
	rec, ok := c.acc[node]
	if !ok {
		cp := make([]Val, len(vals))
		copy(cp, vals)
		c.acc[node] = &accRec{node: node, vals: cp, write: write}
		return
	}
	rec.write = rec.write || write
	for i := range rec.vals {
		if i < len(vals) {
			rec.vals[i] = rec.vals[i].join(vals[i])
		}
	}
}

func (c *collector) access(x *minic.Index, vals []Val, write bool) {
	c.record(x, vals, write)
}

func (c *collector) vecElem(x *minic.VecElem, val Val) {
	c.record(x, []Val{val}, false)
}

func (c *collector) vecAccess(x *minic.VecLoad, val Val, write bool) {
	c.record(x, []Val{val}, write)
}

func (c *collector) division(x *minic.Binary, d Val) {
	if cur, ok := c.div[x]; ok {
		c.div[x] = cur.join(d)
	} else {
		c.div[x] = d
	}
}

func (c *collector) mapWindow(mc *minic.MapClause, low, length Val) {
	if mc.Low == nil {
		return
	}
	if w, ok := c.win[mc.Decl]; ok {
		w.low = w.low.join(low)
		w.len = w.len.join(length)
	} else {
		c.win[mc.Decl] = &winRec{low: low, len: length}
	}
}

// --- loops ---

func (c *collector) finishLoops(res *Result) {
	for st, head := range c.a.g.heads {
		lf := &LoopFact{Loop: st, Name: minic.LoopName(st), Pos: st.Pos}
		res.Loops[st] = lf
		hf := &c.a.flows[head.id]
		if !hf.in.live {
			lf.Trips = interval.Exact(0)
			continue
		}
		lf.Reachable = true
		if st.Cond == nil {
			lf.BodyReachable = true
			lf.Trips = interval.AtLeast(0)
			continue
		}
		bodyOK := hf.outT.live
		lf.BodyReachable = bodyOK

		trips := interval.AtLeast(0)
		if !bodyOK {
			trips = interval.Exact(0)
		} else {
			if t, ok := c.recognizedTrips(st, head); ok {
				trips = trips.Meet(t)
			}
			// First-iteration check on the per-entry preheader state.
			pre := c.a.tmpIn
			if c.a.inFlow(pre, head, head.latch) && !head.impure {
				ev := &evaluator{a: c.a, st: pre, inRegion: head.inRegion}
				switch ev.expr(st.Cond).truth() {
				case +1:
					trips = trips.Meet(interval.AtLeast(1))
				case -1:
					trips = trips.Meet(interval.Exact(0))
				}
			}
			if head.latch == nil {
				// Body always returns: no back edge, at most one trip.
				trips = trips.Meet(interval.Range(0, 1))
			}
		}
		if trips.Empty {
			trips = interval.AtLeast(0)
		}
		lf.Trips = trips
	}
}

// recognizedTrips brackets the per-entry trip count of a canonical
// counted loop (minic.Counted): the induction variable stepped by an
// invariant constant and tested against an invariant bound.
func (c *collector) recognizedTrips(st *minic.ForStmt, head *block) (interval.Interval, bool) {
	if head.impure {
		return interval.Top(), false
	}
	cl := minic.Counted(st)
	if cl == nil {
		return interval.Top(), false
	}
	// The induction variable must be an analyzable scalar.
	iv := c.a.res.byDecl[cl.IV]
	if iv == nil || !iv.tracked || (iv.sharedMut && head.inRegion) {
		return interval.Top(), false
	}
	pre := c.a.tmpIn
	if !c.a.inFlow(pre, head, head.latch) {
		return interval.Top(), false
	}
	ev := &evaluator{a: c.a, st: pre, inRegion: head.inRegion}

	// Step and bound must not depend on anything the loop writes, the
	// induction variable included.
	mut := minic.LoopAssigned(st)
	step := cl.Sign
	if cl.Step != nil {
		if !c.invariant(cl.Step, mut, head.inRegion) {
			return interval.Top(), false
		}
		sc, ok := ev.expr(cl.Step).constVal()
		if !ok || sc == 0 {
			return interval.Top(), false
		}
		step *= sc
	}
	adj, ok := cl.ExclusiveBound(step)
	if !ok || !c.invariant(cl.Bound, mut, head.inRegion) {
		return interval.Top(), false
	}
	bound := ev.expr(cl.Bound).I.Add(interval.Exact(adj))
	return interval.Trips(ev.get(iv).I, bound, interval.Exact(step)), true
}

// invariant reports whether e evaluates to the same value on every
// iteration: all free identifiers unmutated in the loop and (inside a
// region) not shared-mutable, and all calls the omp builtins.
func (c *collector) invariant(e minic.Expr, mut map[minic.Decl]bool, inRegion bool) bool {
	ok := true
	minic.Inspect(e, func(n minic.Node) bool {
		switch x := n.(type) {
		case *minic.Ident:
			v := c.a.res.byDecl[x.Decl]
			ok = ok && !mut[x.Decl] && !(v != nil && v.sharedMut && inRegion)
		case *minic.Call:
			ok = ok && (x.Name == "omp_get_thread_num" || x.Name == "omp_get_num_threads")
		case *minic.AssignExpr, *minic.IncDec:
			ok = false
		}
		return ok
	})
	return ok
}

// --- conditions ---

func (c *collector) finishConds(res *Result) {
	for _, bl := range c.a.g.rpo {
		if bl.cond == nil || bl.condStmt == nil {
			continue
		}
		f := &c.a.flows[bl.id]
		if !f.in.live {
			continue
		}
		tOK, fOK := f.outT.live, f.outF.live
		if tOK == fOK {
			continue // undecided, or bottom on both edges
		}
		cf := &CondFact{Stmt: bl.condStmt, IsLoop: bl.isLoopHead, AlwaysTrue: !fOK, AlwaysFalse: !tOK}
		switch s := bl.condStmt.(type) {
		case *minic.IfStmt:
			cf.Pos = s.Pos
		case *minic.ForStmt:
			cf.Pos = s.Pos
		}
		res.Conds = append(res.Conds, cf)
	}
	sort.Slice(res.Conds, func(i, j int) bool { return posLess(res.Conds[i].Pos, res.Conds[j].Pos) })
}

func posLess(a, b minic.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// --- accesses ---

func (c *collector) finishAccesses(res *Result) {
	for node, rec := range c.acc {
		f := c.finalizeAccess(node, rec)
		if f == nil {
			continue
		}
		res.Accesses = append(res.Accesses, f)
		res.access[node] = f
	}
	sort.Slice(res.Accesses, func(i, j int) bool {
		a, b := res.Accesses[i], res.Accesses[j]
		if a.Pos != b.Pos {
			return posLess(a.Pos, b.Pos)
		}
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		return !a.Write && b.Write
	})
}

func (c *collector) finalizeAccess(node minic.Expr, rec *accRec) *AccessFact {
	switch x := node.(type) {
	case *minic.Index:
		return c.finalizeIndex(x, rec)
	case *minic.VecElem:
		f := &AccessFact{Node: x, Pos: x.Pos, Write: rec.write, Width: 1}
		if id, ok := x.Vec.(*minic.Ident); ok {
			f.Array = id.Name
		}
		lanes := 0
		if t := x.Vec.Type(); t != nil && t.Lanes > 1 {
			lanes = t.Lanes
		}
		if lanes == 0 {
			f.Verdict = Unchecked
			return f
		}
		f.Verdict, f.Index = judge(rec.vals[0], 0, int64(lanes)-1)
		f.BadDim, f.DimSize = 0, int64(lanes)
		return f
	case *minic.VecLoad:
		f := &AccessFact{Node: x, Pos: x.Pos, Write: rec.write, Width: 1}
		if t := x.Type(); t != nil && t.Lanes > 1 {
			f.Width = int64(t.Lanes)
		}
		id, ok := x.Base.(*minic.Ident)
		if !ok {
			f.Verdict = Unchecked
			return f
		}
		f.Array = id.Name
		v := c.a.res.byDecl[id.Decl]
		if v == nil {
			f.Verdict = Unchecked
			return f
		}
		f.Elem, f.ElemOK = rec.vals[0].I, true
		if len(v.dims) > 0 {
			total := int64(max(1, v.lanes))
			for _, d := range v.dims {
				total *= int64(d)
			}
			f.Verdict, f.Index = judge(rec.vals[0], 0, total-f.Width)
			f.BadDim, f.DimSize = -1, total
			return f
		}
		if lo, hi, ok := c.window(id.Decl); ok {
			f.Verdict, f.Index = judge(rec.vals[0], lo, hi-f.Width+1)
			f.BadDim, f.DimSize = -1, hi-lo+1
			return f
		}
		f.Verdict = Unchecked
		return f
	}
	return nil
}

func (c *collector) finalizeIndex(x *minic.Index, rec *accRec) *AccessFact {
	f := &AccessFact{Node: x, Pos: x.Pos, Write: rec.write, Width: 1, BadDim: -1}
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		f.Verdict = Unchecked
		return f
	}
	f.Array = id.Name
	v := c.a.res.byDecl[id.Decl]
	if v == nil {
		f.Verdict = Unchecked
		return f
	}
	dram := v.typ != nil && v.typ.IsPointer()
	switch {
	case dram && len(x.Idx) == 1:
		f.Elem, f.ElemOK = rec.vals[0].I, true
		if lo, hi, ok := c.window(id.Decl); ok {
			f.Verdict, f.Index = judge(rec.vals[0], lo, hi)
			f.BadDim, f.DimSize = 0, hi-lo+1
		} else {
			f.Verdict = Unchecked
		}
		return f
	case len(v.dims) > 0 && len(x.Idx) == len(v.dims):
		lanes := int64(max(1, v.lanes))
		f.Width = lanes
		f.Elem, f.ElemOK = linearizeVals(rec.vals, v.dims, lanes).I, true
		f.Verdict = InBounds
		for i, d := range v.dims {
			verdict, idx := judge(rec.vals[i], 0, int64(d)-1)
			if worse(verdict, f.Verdict) {
				f.Verdict, f.BadDim, f.DimSize, f.Index = verdict, i, int64(d), idx
				if verdict == OOB {
					break
				}
			}
		}
		return f
	case len(v.dims) > 0 && len(x.Idx) == len(v.dims)+1 && v.lanes > 1:
		// Lane access into a vector-element array.
		lanes := int64(v.lanes)
		elem := linearizeVals(rec.vals[:len(rec.vals)-1], v.dims, lanes)
		f.Elem, f.ElemOK = elem.add(rec.vals[len(rec.vals)-1]).I, true
		f.Verdict = InBounds
		for i, d := range v.dims {
			verdict, idx := judge(rec.vals[i], 0, int64(d)-1)
			if worse(verdict, f.Verdict) {
				f.Verdict, f.BadDim, f.DimSize, f.Index = verdict, i, int64(d), idx
			}
		}
		if f.Verdict != OOB {
			verdict, idx := judge(rec.vals[len(rec.vals)-1], 0, lanes-1)
			if worse(verdict, f.Verdict) {
				f.Verdict, f.BadDim, f.DimSize, f.Index = verdict, len(v.dims), lanes, idx
			}
		}
		return f
	default:
		f.Verdict = Unchecked
		return f
	}
}

// judge classifies one subscript value against the inclusive safe range
// [lo, hi]: inside on every execution, provably outside, or undecided.
func judge(v Val, lo, hi int64) (Verdict, interval.Interval) {
	if lo > hi {
		return OOB, v.I
	}
	if v.I.HasLo && v.I.Lo >= lo && v.I.HasHi && v.I.Hi <= hi {
		return InBounds, v.I
	}
	if v.meet(intervalVal(interval.Range(lo, hi))).isBottom() {
		return OOB, v.I
	}
	return MayOOB, v.I
}

func worse(a, b Verdict) bool {
	rank := func(v Verdict) int {
		switch v {
		case OOB:
			return 2
		case MayOOB:
			return 1
		}
		return 0
	}
	return rank(a) > rank(b)
}

// linearizeVals mirrors depend's scalar-word flattening:
// ((i0*d1 + i1)...)*lanes.
func linearizeVals(vals []Val, dims []int, lanes int64) Val {
	acc := vals[0]
	for i := 1; i < len(vals); i++ {
		acc = acc.mul(exactVal(int64(dims[i]))).add(vals[i])
	}
	return acc.mul(exactVal(lanes))
}

// window returns the mapped DRAM window [lo, hi] for a pointer
// parameter when the map clause extent was a compile-time constant.
func (c *collector) window(d minic.Decl) (lo, hi int64, ok bool) {
	w, found := c.win[d]
	if !found {
		return 0, 0, false
	}
	l, okL := w.low.constVal()
	n, okN := w.len.constVal()
	if !okL || !okN || n <= 0 {
		return 0, 0, false
	}
	h, okA := interval.CheckedAdd(l, n-1)
	if !okA {
		return 0, 0, false
	}
	return l, h, true
}

// --- divisions ---

func (c *collector) finishDivs(res *Result) {
	for node, d := range c.div {
		f := &DivFact{Node: node, Pos: node.Pos, IsRem: node.Op == minic.OpRem, Divisor: d.I}
		if cv, ok := d.constVal(); ok && cv == 0 {
			f.ProvenZero = true
		} else if d.I.Bounded() && d.I.Contains(0) && d.C.member(0) {
			f.MayZero = true
		}
		res.Divs = append(res.Divs, f)
	}
	sort.Slice(res.Divs, func(i, j int) bool { return posLess(res.Divs[i].Pos, res.Divs[j].Pos) })
}
