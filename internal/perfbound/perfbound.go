// Package perfbound is a static performance-bound analyzer over the
// scheduled IR. From the pipeline schedule (stage structure, latency
// table, memory-port assignments) and constant-folded trip counts it
// computes, per kernel and per loop nest: a best-case initiation
// interval, total-cycle lower/upper bounds, a roofline
// memory-boundedness verdict against the DRAM model, a static
// profile-buffer overflow check, and cycles-at-Fmax wall-time bounds.
// The bounds are designed to bracket what internal/sim measures: the
// lower bound follows from the simulator's timing invariants (one stage
// per cycle, Depth+1 cycles per iteration, one in-flight iteration per
// thread, 1 DRAM accept and BeatBytes bus bytes per cycle); the upper
// bound charges every thread its own worst-case waits and is validated
// against the simulator by the soundness property test.
package perfbound

import (
	"fmt"
	"sort"

	"paravis/internal/area"
	"paravis/internal/depend"
	"paravis/internal/interval"
	"paravis/internal/ir"
	"paravis/internal/mem"
	"paravis/internal/profile"
	"paravis/internal/schedule"
	"paravis/internal/sim"
)

// Config is the machine the bounds are computed against: the
// simulator's own configuration, read through sim.Config.WithDefaults
// exactly as the engine reads it, so a prediction and a measurement
// describe the same hardware. Operation latencies come from the
// schedule the kernel was built with. The promoted MaxCycles is ignored.
type Config struct {
	sim.Config
	// TripHints supplies externally proven per-entry trip brackets
	// keyed by loop name ("for@line:col"), e.g. from internal/absint's
	// Result.TripHints; a bracket without both bounds is ignored. They
	// are consulted only as a fallback when neither concrete iteration
	// nor the affine pattern bounds a loop, so a nil map leaves every
	// report unchanged. Hints must be sound over-approximations or the
	// cycle bounds lose their bracketing guarantee.
	TripHints map[string]interval.Interval
}

// DefaultConfig is the simulator's default machine without trip hints.
func DefaultConfig() Config { return Config{Config: sim.DefaultConfig()} }

// The upper bound's margins: slack is multiplicative, slackCycles
// additive. They absorb second-order queueing effects (bank conflicts,
// accept-queue ordering, spin-retry granularity) that the per-thread
// charge model bounds only approximately.
const (
	slack       = 1.25
	slackCycles = 2048
)

// eventRecordBytes is the size of one event sample record.
const eventRecordBytes = profile.EventRecordBits / 8.0

// CycleBounds brackets the simulator's Result.Cycles. UpperKnown is
// false when some trip count could not be constant-folded, in which
// case Upper is meaningless.
type CycleBounds struct {
	Lower      int64 `json:"lower"`
	Upper      int64 `json:"upper"`
	UpperKnown bool  `json:"upper_known"`
}

// PortConflict reports an array whose single memory port is hit more
// than once per loop iteration, limiting any pipelined II.
type PortConflict struct {
	Array    string `json:"array"`
	Accesses int64  `json:"accesses_per_iter"`
}

// LoopReport is the per-loop-nest analysis.
type LoopReport struct {
	Name  string `json:"name"`
	Depth int    `json:"pipeline_depth"`
	// IIThread is the iteration interval the architecture achieves: one
	// token per thread, so Depth+1 cycles between iterations.
	IIThread int64 `json:"ii_thread"`
	// IIBest is the best II a fully pipelined datapath could reach,
	// floored by single-port conflicts, external-bus beats and the
	// dependence-recurrence minimum (RecMII).
	IIBest    int64  `json:"ii_best"`
	IILimiter string `json:"ii_limiter"`
	// RecMII is the recurrence-constrained minimum II: for each proven
	// loop-carried dependence cycle, ceil(latency / distance), maximized
	// over cycles. 0 when the dependence engine proved no recurrence.
	// Sound but not exhaustive: unproven ("may") dependences contribute
	// nothing, so RecMII is a lower bound on any legal pipelined II.
	RecMII int64 `json:"rec_mii,omitempty"`
	// RecWhy names the binding recurrence when RecMII > 0.
	RecWhy string `json:"rec_why,omitempty"`
	// Trip-count interval per entry; TripsKnown=false when the bound or
	// step could not be constant-folded.
	TripsLo    int64 `json:"trips_lo"`
	TripsHi    int64 `json:"trips_hi"`
	TripsKnown bool  `json:"trips_known"`
	// Worst-case external traffic of one iteration of this loop body.
	ExtBytesPerIter int64 `json:"ext_bytes_per_iter"`
	ExtReqsPerIter  int64 `json:"ext_reqs_per_iter"`
	LocalPerIter    int64 `json:"local_accesses_per_iter"`
	// MemBound: aggregate demand of all threads in this loop exceeds the
	// DRAM bus width per achievable iteration slot.
	MemBound      bool           `json:"mem_bound"`
	PortConflicts []PortConflict `json:"port_conflicts,omitempty"`
}

// Roofline is the kernel-level compute-vs-memory verdict.
type Roofline struct {
	ComputeCycles       int64   `json:"compute_cycles"`
	MemoryCycles        int64   `json:"memory_cycles"`
	DemandBytesPerCycle float64 `json:"demand_bytes_per_cycle"`
	PeakBytesPerCycle   float64 `json:"peak_bytes_per_cycle"`
	MemoryBound         bool    `json:"memory_bound"`
}

// OverflowCheck statically predicts whether the profiling unit's flush
// traffic can exceed the DRAM bandwidth left over by the kernel, the
// precondition for on-chip profile-buffer overflow.
type OverflowCheck struct {
	EventBytesPerCycle float64 `json:"event_bytes_per_cycle"`
	StateBytesPerCycle float64 `json:"state_bytes_per_cycle"`
	SpareBytesPerCycle float64 `json:"spare_bytes_per_cycle"`
	Risk               bool    `json:"risk"`
}

// Report is the full static analysis of one kernel under one workload.
type Report struct {
	Kernel     string        `json:"kernel"`
	NumThreads int           `json:"num_threads"`
	Cycles     CycleBounds   `json:"cycles"`
	Loops      []LoopReport  `json:"loops"`
	Roofline   Roofline      `json:"roofline"`
	Overflow   OverflowCheck `json:"overflow"`
	FmaxMHz    float64       `json:"fmax_mhz"`
	// Wall-clock bounds at Fmax, in microseconds (upper is 0 when the
	// cycle upper bound is unknown).
	WallLowerUS float64 `json:"wall_lower_us"`
	WallUpperUS float64 `json:"wall_upper_us"`
}

// gstats are the per-iteration VLO statistics of one graph, read off the
// schedule once. Min counts exclude predicated ops (they may not
// execute); max counts include everything live.
type gstats struct {
	extLoadsMin, extLoadsMax   int64
	extStoresMin, extStoresMax int64
	extBeatsMin, extBeatsMax   int64
	extBytesMin, extBytesMax   int64
	localMax                   int64
	locksMax                   int64
	barriers                   int64
	perArray                   map[string]int64 // max accesses per iter, by array name
	localArrays                map[string]bool
}

func beatsOf(n *ir.Node, beatBytes int) int64 {
	bb := int64(beatBytes)
	return (bytesOf(n) + bb - 1) / bb
}

func bytesOf(n *ir.Node) int64 {
	b := int64(n.Width) * int64(n.Arr.ElemWords) * mem.WordBytes
	if b <= 0 {
		b = mem.WordBytes
	}
	return b
}

func statsOf(gs *schedule.GraphSched, beatBytes int) gstats {
	st := gstats{perArray: map[string]int64{}, localArrays: map[string]bool{}}
	for _, n := range gs.G.Nodes {
		if !gs.Live[n] {
			continue
		}
		switch n.Op {
		case ir.OpLoad, ir.OpStore:
			st.perArray[n.Arr.Name]++
			if n.Arr.Space == ir.SpaceLocal {
				st.localArrays[n.Arr.Name] = true
				st.localMax++
				continue
			}
			beats := beatsOf(n, beatBytes)
			bytes := bytesOf(n)
			st.extBeatsMax += beats
			st.extBytesMax += bytes
			if n.Op == ir.OpLoad {
				st.extLoadsMax++
			} else {
				st.extStoresMax++
			}
			if n.Pred == nil {
				st.extBeatsMin += beats
				st.extBytesMin += bytes
				if n.Op == ir.OpLoad {
					st.extLoadsMin++
				} else {
					st.extStoresMin++
				}
			}
		case ir.OpLock:
			st.locksMax++
		case ir.OpBarrier:
			st.barriers++
		}
	}
	return st
}

// ivCap is the saturation bound of cycle and traffic totals. It is large
// enough that any real cycle count fits, and small enough that sums and
// products of saturated values stay far from int64 overflow.
const ivCap = int64(1) << 50

func clampCap(v int64) int64 {
	if v > ivCap {
		return ivCap
	}
	if v < -ivCap {
		return -ivCap
	}
	return v
}

func satAdd(a, b int64) int64 { return clampCap(a + b) } // |a|,|b| <= ivCap: no overflow
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > ivCap || a < -ivCap || b > ivCap || b < -ivCap {
		a, b = clampCap(a), clampCap(b)
	}
	r := a * b
	// Saturate on overflow or out-of-range results.
	if r/b != a || r > ivCap || r < -ivCap {
		if (a > 0) == (b > 0) {
			return ivCap
		}
		return -ivCap
	}
	return r
}

// traffic totals accumulated over one thread's whole execution.
type traffic struct {
	reqsMin, reqsMax   int64
	beatsMin, beatsMax int64
	bytesMin, bytesMax int64
	locksMax           int64
}

// lowerExec returns a sound lower bound on the cycles one execution of
// this graph keeps its thread busy, and accumulates minimum DRAM
// traffic (scaled by the minimum executions the caller will multiply
// by — here we return per-execution traffic and let the caller scale).
func lowerExec(cg *cgraph) int64 {
	// Per iteration the frame needs Depth+1 cycles, and every
	// non-predicated child must complete inside the iteration; children
	// may overlap each other, so take the max.
	gs := cg.gs
	inner := int64(gs.Depth) + 1
	for _, kid := range cg.kids {
		if kid.entry.Bounded() && kid.entry.Lo >= 1 {
			if k := lowerExec(kid); k > inner {
				inner = k
			}
		}
	}
	if cg.g.Cond == nil {
		return inner
	}
	trips := int64(0)
	if cg.trips.Bounded() {
		trips = cg.trips.Lo
	}
	return int64(gs.ExitStage()) + 1 + satMul(trips, inner)
}

// addTraffic accumulates one thread's DRAM request/beat/byte totals over
// the whole loop tree: per-execution traffic times the execution-count
// interval.
func addTraffic(cg *cgraph, execLo, execHi int64, t *traffic) {
	st := &cg.stats
	tripsLo, tripsHi := int64(0), ivCap
	if cg.trips.Bounded() {
		tripsLo, tripsHi = cg.trips.Lo, cg.trips.Hi
	}
	if cg.g.Cond == nil {
		tripsLo, tripsHi = 1, 1
	}
	iterLo := satMul(execLo, tripsLo)
	iterHi := satMul(execHi, tripsHi)
	t.reqsMin = satAdd(t.reqsMin, satMul(iterLo, st.extLoadsMin+st.extStoresMin))
	t.reqsMax = satAdd(t.reqsMax, satMul(iterHi, st.extLoadsMax+st.extStoresMax))
	t.beatsMin = satAdd(t.beatsMin, satMul(iterLo, st.extBeatsMin))
	t.beatsMax = satAdd(t.beatsMax, satMul(iterHi, st.extBeatsMax))
	t.bytesMin = satAdd(t.bytesMin, satMul(iterLo, st.extBytesMin))
	t.bytesMax = satAdd(t.bytesMax, satMul(iterHi, st.extBytesMax))
	t.locksMax = satAdd(t.locksMax, satMul(iterHi, st.locksMax))
	for _, kid := range cg.kids {
		kLo, kHi := int64(0), int64(1)
		if kid.entry.Bounded() {
			kLo, kHi = kid.entry.Lo, kid.entry.Hi
		}
		addTraffic(kid, satMul(iterLo, kLo), satMul(iterHi, kHi), t)
	}
}

// upperExec returns a conservative upper bound on the cycles one
// execution of this graph charges to its own thread: pipeline time plus
// the worst-case completion of every VLO it issues, plus its children.
// known=false when some trip count is unresolved.
func upperExec(cg *cgraph, cfg *Config, minLock int, nt int64) (int64, bool) {
	gs := cg.gs
	st := &cg.stats
	iter := int64(gs.Depth) + 3
	iter = satAdd(iter, satMul(st.extLoadsMax, int64(cfg.DRAM.LatencyCycles+cfg.DRAM.BankRecovery+2)))
	iter = satAdd(iter, st.extBeatsMax)
	iter = satAdd(iter, satMul(st.extStoresMax, int64(cfg.DRAM.BankRecovery+2)))
	iter = satAdd(iter, satMul(st.localMax, int64(cfg.BRAMLatency+1)))
	iter = satAdd(iter, satMul(st.locksMax, int64(cfg.SpinRetry+minLock+2)))
	iter = satAdd(iter, satMul(st.barriers, satMul(nt, cfg.ThreadStart)))
	known := true
	for _, kid := range cg.kids {
		ku, kk := upperExec(kid, cfg, minLock, nt)
		if !kk {
			known = false
		}
		hi := int64(1)
		if kid.entry.Bounded() {
			hi = kid.entry.Hi
		}
		iter = satAdd(iter, satMul(hi, ku))
	}
	if cg.g.Cond == nil {
		return iter, known
	}
	if !cg.trips.Bounded() {
		return iter, false
	}
	return satAdd(int64(gs.ExitStage())+3, satMul(cg.trips.Hi, iter)), known
}

// Analyze runs the full static model for one scheduled kernel under one
// workload (env maps scalar parameter names to their values; nil means
// fully symbolic).
func Analyze(k *ir.Kernel, s *schedule.Schedule, env map[string]int64, cfg Config) *Report {
	cfg.Config = cfg.Config.WithDefaults()
	nt := int64(k.NumThreads)
	top := compile(k.Top, s, env, cfg.DRAM.BeatBytes)

	// Proven dependence recurrences (per graph), with the schedule's own
	// latency table so RecMII and the pipeline agree on operation cost.
	latAll := make(map[*ir.Node]int)
	for _, gs := range s.ByGraph {
		for n, l := range gs.Lat {
			latAll[n] = l
		}
	}
	deps := depend.AnalyzeKernel(k, env, func(n *ir.Node) int { return latAll[n] })

	// Per-thread evaluation with exact thread ids: compute the lower
	// bound and total traffic.
	var lower int64
	var tot traffic
	var sumUpper int64
	upperKnown := true
	tc := treeCtx{nthreads: interval.Exact(nt)}
	for t := int64(0); t < nt; t++ {
		tc.tid = interval.Exact(t)
		top.evalTree(&tc, cfg.TripHints, interval.Exact(1))
		lb := satAdd(satMul(t, cfg.ThreadStart), lowerExec(top))
		if lb > lower {
			lower = lb
		}
		addTraffic(top, 1, 1, &tot)
		ub, known := upperExec(top, &cfg, s.Cfg.Lat.MinLock, nt)
		if !known {
			upperKnown = false
		}
		sumUpper = satAdd(sumUpper, ub)
	}
	computeLower := lower
	// DRAM serialization floors: 1 request accepted per cycle, BeatBytes
	// transferred per cycle, across all threads.
	memLower := max(tot.reqsMin, tot.beatsMin)
	if memLower > lower {
		lower = memLower
	}

	// Upper bound: last thread start + every thread's own charged work,
	// inflated by the profile-flush bandwidth share and the model slack.
	lastStart := satMul(nt-1, cfg.ThreadStart)
	upper := satAdd(lastStart, sumUpper)
	stateBytes := int64(0)
	evFactor := 1.0
	if cfg.Profile.Enabled {
		stateRecBytes := int64((profile.StateRecordBits(int(nt)) + 7) / 8)
		// State records are produced at thread start/end and around each
		// lock acquisition (Running->Spinning->Critical->Running).
		stateBytes = satMul(stateRecBytes, satAdd(satMul(4, tot.locksMax), 4*nt))
		upper = satAdd(upper, (stateBytes+int64(cfg.DRAM.BeatBytes)-1)/int64(cfg.DRAM.BeatBytes))
		// Event samples: one record per thread per sample window,
		// stealing a fixed fraction of the flush bus.
		evBytesPerCycle := float64(nt) * eventRecordBytes / float64(cfg.Profile.SamplePeriod)
		share := evBytesPerCycle / float64(cfg.DRAM.BeatBytes)
		if share < 0.9 {
			evFactor = 1.0 / (1.0 - share)
		} else {
			evFactor = 10.0
		}
	}
	upper = clampCap(int64(float64(upper)*evFactor*slack)) + slackCycles

	// Kernel-wide loop reports from an interval thread id (covers all
	// threads at once).
	tc.tid = interval.Range(0, nt-1)
	top.evalTree(&tc, cfg.TripHints, interval.Exact(1))
	var loops []LoopReport
	var walkLoops func(cg *cgraph)
	walkLoops = func(cg *cgraph) {
		if cg.g.Cond != nil {
			loops = append(loops, loopReport(cg, deps.ByGraph[cg.g], &cfg, nt))
		}
		for _, kid := range cg.kids {
			walkLoops(kid)
		}
	}
	walkLoops(top)

	// Roofline: does the guaranteed memory time dominate the minimum
	// compute time? Min-side traffic keeps the verdict sound when some
	// trip count did not fold (max-side would saturate and always claim
	// memory-bound).
	memCycles := max(tot.reqsMin, tot.beatsMin)
	demand := 0.0
	if computeLower > 0 {
		demand = float64(tot.bytesMin) / float64(computeLower)
	}
	roof := Roofline{
		ComputeCycles:       computeLower,
		MemoryCycles:        memCycles,
		DemandBytesPerCycle: demand,
		PeakBytesPerCycle:   float64(cfg.DRAM.BeatBytes),
		MemoryBound:         memCycles > computeLower,
	}

	// Overflow: flush demand vs the bandwidth the kernel leaves free.
	var ovf OverflowCheck
	if cfg.Profile.Enabled {
		ovf.EventBytesPerCycle = float64(nt) * eventRecordBytes / float64(cfg.Profile.SamplePeriod)
		if lower > 0 {
			ovf.StateBytesPerCycle = float64(stateBytes) / float64(lower)
		}
		spare := float64(cfg.DRAM.BeatBytes) - demand
		if spare < 0 {
			spare = 0
		}
		ovf.SpareBytesPerCycle = spare
		ovf.Risk = ovf.EventBytesPerCycle+ovf.StateBytesPerCycle > spare
	}

	if !upperKnown {
		upper = 0
	}
	rep := &Report{
		Kernel:     k.Name,
		NumThreads: int(nt),
		Cycles:     CycleBounds{Lower: lower, Upper: upper, UpperKnown: upperKnown},
		Loops:      loops,
		Roofline:   roof,
		Overflow:   ovf,
	}
	ar := area.Estimate(k, s, cfg.Profile)
	rep.FmaxMHz = ar.FmaxMHz
	if ar.FmaxMHz > 0 {
		rep.WallLowerUS = float64(lower) / ar.FmaxMHz
		if upperKnown {
			rep.WallUpperUS = float64(upper) / ar.FmaxMHz
		}
	}
	return rep
}

// recMII derives the recurrence-constrained minimum II of one loop graph
// from the dependence engine's proven recurrences: the longest scalar
// carry cycle (distance 1, so the chain latency itself), and for each
// proven store-to-load memory recurrence the access round trip divided
// by the dependence distance. The round trip uses the same machine model
// as the rest of the bounds: BRAM reads back after BRAMLatency+1 cycles;
// a DRAM load observes the store only after the DRAM latency plus the
// load's own bus beats.
// Cycles that floor to 1 (e.g. the loop counter's own increment) are
// dropped: every pipelined II is >= 1 already, so they constrain
// nothing.
func recMII(gd *depend.GraphDeps, cfg *Config) (int64, string) {
	rec, why := int64(0), ""
	if gd == nil {
		return rec, why
	}
	for _, sr := range gd.Scalar {
		if sr.Lat > 1 && int64(sr.Lat) > rec {
			rec = int64(sr.Lat)
			why = fmt.Sprintf("carried scalar recurrence (%d-cycle chain, distance 1)", sr.Lat)
		}
	}
	for _, mr := range gd.Mem {
		var lat int64
		if mr.Local {
			lat = int64(cfg.BRAMLatency) + 1
		} else {
			lat = int64(cfg.DRAM.LatencyCycles) + beatsOf(mr.Load, cfg.DRAM.BeatBytes)
		}
		m := (lat + mr.Distance - 1) / mr.Distance
		if m > 1 && m > rec {
			rec = m
			why = fmt.Sprintf("memory recurrence on %s (%d-cycle store-to-load round trip, distance %d)", mr.Array, lat, mr.Distance)
		}
	}
	return rec, why
}

// loopReport builds the per-loop view: achieved and best-case II, trip
// counts, per-iteration traffic, the limiting resource and the
// memory-boundedness of this nest in isolation.
func loopReport(cg *cgraph, gd *depend.GraphDeps, cfg *Config, nt int64) LoopReport {
	gs, st := cg.gs, &cg.stats
	r := LoopReport{
		Name:            cg.g.Name,
		Depth:           gs.Depth,
		IIThread:        int64(gs.Depth) + 1,
		TripsKnown:      cg.trips.Bounded(),
		ExtBytesPerIter: st.extBytesMax,
		ExtReqsPerIter:  st.extLoadsMax + st.extStoresMax,
		LocalPerIter:    st.localMax,
	}
	if cg.trips.Bounded() {
		r.TripsLo, r.TripsHi = cg.trips.Lo, cg.trips.Hi
	}
	// Best pipelined II: floored at 1, limited by single-port arrays
	// (each port serves one access per cycle) and by the external bus
	// (beats per iteration aggregated over all threads).
	best := int64(1)
	limiter := "dependencies"
	names := make([]string, 0, len(st.perArray))
	for name := range st.perArray {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !st.localArrays[name] {
			continue
		}
		accesses := st.perArray[name]
		if accesses > best {
			best = accesses
			limiter = "port-conflict:" + name
		}
		if accesses > 1 {
			r.PortConflicts = append(r.PortConflicts, PortConflict{Array: name, Accesses: accesses})
		}
	}
	if reqs := st.extLoadsMax + st.extStoresMax; satMul(reqs, nt) > best {
		best = satMul(reqs, nt)
		limiter = "dram-requests"
	}
	if beats := satMul(st.extBeatsMax, nt); beats > best {
		best = beats
		limiter = "dram-bandwidth"
	}
	r.RecMII, r.RecWhy = recMII(gd, cfg)
	if r.RecMII > best {
		best = r.RecMII
		limiter = "recurrence"
	}
	r.IIBest = best
	r.IILimiter = limiter
	// The nest is memory bound when all threads' demand per achieved
	// iteration slot exceeds the bus width.
	r.MemBound = satMul(st.extBytesMax, nt) > satMul(r.IIThread, int64(cfg.DRAM.BeatBytes))
	return r
}
