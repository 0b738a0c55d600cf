package sim

import (
	"context"
	"fmt"
	"math"

	"paravis/internal/hw"
	"paravis/internal/hwsem"
	"paravis/internal/ir"
	"paravis/internal/mem"
	"paravis/internal/profile"
)

// profRegionWords is the circular DRAM region the profiling unit flushes
// into (the host would drain it between reads; we only model the traffic).
const profRegionWords = 1 << 16

// valArenaBlock is the granule of the frame register-file arena.
const valArenaBlock = 1024

type engine struct {
	ck  *hw.CKernel
	cfg Config

	dram    *mem.DRAM
	brams   [][]*mem.BRAM // [thread][localID]
	sems    []*hwsem.Semaphore
	barrier *hwsem.Barrier
	prof    *profile.Unit

	params     []hw.Value
	globalBase []int64 // by GlobalIdx
	mapBase    map[string]int64
	mapLow     map[string]int64
	mapLen     map[string]int64

	// threads holds every hardware thread by id; threads[:nextStart] have
	// been started by the host (startAt is monotonic in id), the rest not
	// yet. nextStartAt caches threads[nextStart].startAt (MaxInt64 when all
	// threads have started): the per-cycle host-start check is one compare.
	threads     []*thread
	nextStart   int
	nextStartAt int64
	nDone       int // threads whose top region has finished
	// frames holds each thread's frame per graph, created on first use
	// and reused (frameFor): frames[graph*len(threads) + thread]. A graph's
	// row holds the tokens coast may have to ask where they stand.
	frames []*frame
	// due is the set of threads with at least one ready frame, by id;
	// stepDue walks it once per stepped cycle. Wake paths and timed wakes
	// that have come due add to it (readyFrame); a thread leaves it when
	// its walk ends with an empty ready set.
	due ordSet
	// occ tracks static-stage occupancy: occ[graph][stage] = thread id
	// or -1. Reordering stages are never tracked (one context per thread).
	occ [][]int32
	// occW lists the frames sleeping on a held static-stage slot:
	// occW[graph][stage]. freeOcc wakes and clears the slot's list, so
	// occupancy-blocked frames need not poll every cycle.
	occW [][][]*frame
	// coastW lists, per static slot, the coasting frames whose landing
	// stage is the one before it: they land plainly unless the slot's
	// holder is found stuck first (turnWatchers); coastW[graph][stage].
	coastW [][][]*frame
	// stamps[graph][stage] is the last coast through each static stage (see
	// coast); nCoast counts the frames coasting now. A stamp holds its slot
	// only while its frame coasts, so with nCoast == 0 no stamp is read.
	stamps [][]coastStamp
	nCoast int

	// wakes is a min-heap of timed wake-ups (pending retry, timed-VLO
	// completion), each carrying the frame it is for; fireTimedWakes pops
	// the due ones at the start of a cycle and readies their frames. An
	// entry whose frame was woken early is stale and dropped when popped.
	// woken flags that an external wake (DRAM completion, barrier release,
	// child finish) fired this cycle, so a fast-forward jump must not skip
	// the next cycle.
	wakes []timedWake
	woken bool
	// nPortSleep counts frames asleep on a busy memory port. While any
	// exist, fast-forward jumps are capped at the next sample-window
	// boundary (see nextEventCycle).
	nPortSleep int
	// profNext caches prof.NextBoundary() so prof.Tick is only called on
	// sample-window crossings instead of every cycle.
	profNext int64
	// The per-loop ledger by graph index, summed over executions and
	// threads (finish folds it by loop name): iteration starts, completed
	// executions (frame entry to retirement), frame-active cycles and stall
	// cycles. iters/spans is the measured per-loop initiation interval the
	// static RecMII floor is validated against (the recurrence only
	// separates consecutive iterations of one execution, hence execs).
	loopIters  []int64
	loopExecs  []int64
	loopSpans  []int64
	loopStalls []int64

	// Recycling pools for the hot loop: retired outstanding-VLO records,
	// external-store payload buffers (returned once the DRAM has copied
	// them), a BRAM transfer scratch, the profile-flush scratch and the
	// completed profile-flush requests.
	vloPool     []*outVLO
	bufPool     [][]uint32
	encScratch  []uint32
	profScratch []uint32
	profReqs    []*mem.Request
	// valArena slab-allocates frame register files: frames live for the
	// whole run, so their value storage is carved from shared blocks
	// instead of one heap object per frame.
	valArena []hw.Value

	cycle                    int64
	profBase                 int64
	profOff                  int64
	transferTo, transferFrom int64
	transferCycles           int64

	// runErr records the first fatal execution error (division by zero,
	// out-of-bounds access); the main loop stops on it.
	runErr error

	// Scheduler work counters, published on the Result (see Result.Steps).
	steps, failedSteps, frameVisits, threadVisits, jumps int64

	args Args
}

type vloKind uint8

const (
	vkTimed   vloKind = iota // completes at doneCycle
	vkAsync                  // completes via callback (DRAM)
	vkChild                  // completes when child frame finishes
	vkBarrier                // completes when the barrier generation passes
)

type outVLO struct {
	pos        int32
	waitStage  int32
	kind       vloKind
	doneCycle  int64 // for vkTimed; set on completion for others
	barrierGen int64
	done       bool
}

type pendKind uint8

const (
	pendPort pendKind = iota // memory port busy: counts as a stall
	pendLock                 // semaphore taken: Spinning state, not a stall
)

type pending struct {
	pos     int32
	kind    pendKind
	retryAt int64
}

type frame struct {
	cg *hw.CGraph
	// occ / ow / cw alias the engine's occupancy, occupancy-waiter and
	// coast-watcher rows for this graph.
	occ []int32
	ow  [][]*frame
	cw  [][]*frame
	gi  int32
	// t is the owning thread and ai the frame's index in t.active (and so
	// in t.ready); both are set when the frame is activated.
	t       *thread
	ai      int32
	vals    []hw.Value
	carries []hw.Value
	// stage is the token position: -1 = about to start an iteration.
	// stageAt is the cycle the token entered it (for a coasting frame, the
	// cycle stepping would have entered its landing stage).
	// stuckAt is the first cycle since then at which the token was found
	// blocked in it (a failed step, or the cycle anticipate slept it as of);
	// below stageAt while it has not been.
	stage       int32
	stageAt     int64
	stuckAt     int64
	outstanding []*outVLO
	// minWait lower-bounds the waitStage of every undone outstanding VLO
	// (stale-low is allowed: externally-completed entries keep it pinned
	// until the next retire compaction recomputes it). canEnter skips the
	// outstanding scan whenever the target stage is below it.
	minWait int32
	// timedUntil is the latest doneCycle of the outstanding timed VLOs, 0
	// when there are none (exact after every step: the retire pass
	// recomputes it).
	timedUntil int64
	// pendStalls accumulates stall cycles charged to this frame; settled
	// (chargeStalls) at window boundaries and when the frame retires.
	// Equivalent to per-charge settlement because stall counters are only
	// read when a window closes (or at the end).
	pendStalls int64
	pendings   []pending
	parent     *frame
	// loopVLO is the parent's outstanding entry for this loop instance.
	loopVLO *outVLO
	loopPos int32
	// enterCycle is when this frame (re)entered the active list; the
	// entry-to-retirement span feeds the per-loop II measurement.
	enterCycle int64
	// finished marks the frame for removal from the thread's active list.
	finished bool

	// Sleep bookkeeping: sleepUntil is 0 while the frame is in its thread's
	// ready set. A blocked frame that cannot change state on its own leaves
	// the set and sleeps until sleepUntil (math.MaxInt64 when only an
	// external event can wake it). sleepFrom records the cycle it slept;
	// if sleepStall is set, the skipped cycles are charged as stalls when
	// the frame next steps, reproducing the 1-stall-per-blocked-cycle
	// accounting of per-cycle stepping. stalledNow marks a frame that
	// stayed awake (occupancy block) but is stall-blocked this cycle, for
	// bulk accounting across fast-forward jumps.
	sleepUntil int64
	sleepFrom  int64
	sleepStall bool
	stalledNow bool
	// portSleep marks a frame counted in engine.nPortSleep; cleared (and
	// the counter decremented) when the frame next steps.
	portSleep bool
	// holdsOcc marks a token holding a static-stage occupancy slot, so the
	// per-stage freeOcc call is one inlined branch in the common case.
	holdsOcc bool
	// coasting marks a frame asleep in coast until it lands: at sleepUntil,
	// or in its thread's turn of stageAt (engine.land); readyFrame ignores
	// it until then.
	coasting bool
}

type thread struct {
	id       int
	startAt  int64
	done     bool
	endCycle int64
	// env feeds the stage closures (run-constant inputs).
	env hw.ExecEnv
	// pendInt/pendFp accumulate compute-op counts locally; the engine
	// flushes them to the profiling unit at window boundaries (and at
	// thread end), which is equivalent to per-stage AddCompute calls
	// because window counters are only read when a window closes.
	pendInt int64
	pendFp  int64
	// active holds all live frames of this thread: the top region plus
	// any in-flight loop instances. Independent sibling loops execute
	// concurrently (the dataflow permitting), which is what lets the
	// double-buffered GEMM overlap its prefetch and compute loops.
	active []*frame
	// ready is the set of indices into active of the frames that step on
	// the thread's next walk, in issue order. A frame leaves it when it
	// goes to sleep or finishes and re-enters it through readyFrame.
	ready ordSet
	// landing lists the frames whose coast ends in the thread's next turn
	// (engine.land).
	landing  []*frame
	extRead  bool
	extWrite bool

	// Reusable external-memory request slots. A thread has at most one
	// read and one write in flight (extRead/extWrite gate reissue), so
	// the request records and their completion callbacks are allocated
	// once per thread and repointed per issue instead of heap-allocated
	// per memory operation.
	readReq  mem.Request
	writeReq mem.Request
	rdVLO    *outVLO
	wrVLO    *outVLO
	rdFrame  *frame
	wrFrame  *frame
	rdCN     *hw.CNode
	rdPos    int32
	wrData   []uint32
}

func newEngine(ck *hw.CKernel, args Args, cfg Config) (*engine, error) {
	if err := validateArgs(ck, args); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	e := &engine{
		ck:      ck,
		cfg:     cfg,
		dram:    mem.NewDRAM(cfg.DRAM),
		mapBase: map[string]int64{},
		mapLow:  map[string]int64{},
		mapLen:  map[string]int64{},
		args:    args,
	}

	n := ck.K.NumThreads
	// With profiling off there is no unit (nil): its methods do nothing.
	e.prof = profile.New(cfg.Profile, n, e.flushProfile)
	if e.prof != nil {
		e.dram.AddListener(func(c int64, th int, b int, w bool) { e.prof.AddMem(th, b, w) })
	}

	// Hardware semaphores and barrier.
	for i := 0; i < ck.K.NumSems; i++ {
		e.sems = append(e.sems, hwsem.NewSemaphore())
	}
	e.barrier = hwsem.NewBarrier(n)

	// Per-thread BRAMs.
	e.brams = make([][]*mem.BRAM, n)
	for t := 0; t < n; t++ {
		for _, la := range ck.K.Locals {
			e.brams[t] = append(e.brams[t], mem.NewBRAM(la.ElemWords*la.NumElems, cfg.BRAMLatency))
		}
	}

	// Static-stage occupancy tables and the per-loop ledger (one slot per
	// graph, so the hot path bumps a counter instead of hashing the loop
	// name into a map).
	e.occ = make([][]int32, len(ck.Graphs))
	e.occW = make([][][]*frame, len(ck.Graphs))
	e.coastW = make([][][]*frame, len(ck.Graphs))
	e.stamps = make([][]coastStamp, len(ck.Graphs))
	depth := 0
	for _, cg := range ck.Graphs {
		depth += cg.Depth
	}
	stamps := make([]coastStamp, depth)
	watch := make([][]*frame, depth)
	for i := range stamps {
		stamps[i] = noStamp
	}
	e.loopIters = make([]int64, len(ck.Graphs))
	e.loopExecs = make([]int64, len(ck.Graphs))
	e.loopSpans = make([]int64, len(ck.Graphs))
	e.loopStalls = make([]int64, len(ck.Graphs))
	for gi, cg := range ck.Graphs {
		e.occ[gi] = make([]int32, cg.Depth)
		for s := range e.occ[gi] {
			e.occ[gi][s] = -1
		}
		e.occW[gi] = make([][]*frame, cg.Depth)
		e.coastW[gi], watch = watch[:cg.Depth:cg.Depth], watch[cg.Depth:]
		e.stamps[gi], stamps = stamps[:cg.Depth:cg.Depth], stamps[cg.Depth:]
	}

	if err := e.setupMemory(); err != nil {
		return nil, err
	}
	if err := e.setupParams(); err != nil {
		return nil, err
	}

	// Threads start sequentially: the host writes each context over the
	// slave interface before starting the next.
	for t := 0; t < n; t++ {
		e.threads = append(e.threads, &thread{
			id:      t,
			startAt: int64(t) * cfg.ThreadStart,
			env: hw.ExecEnv{
				Params:     e.params,
				ThreadID:   int64(t),
				NumThreads: int64(n),
			},
		})
	}
	e.due = make(ordSet, (n+63)/64)
	e.frames = make([]*frame, len(ck.Graphs)*n)
	return e, nil
}

// scalarEnv builds the host-side evaluation environment for map sizes.
func (e *engine) scalarEnv() map[string]int64 {
	env := map[string]int64{}
	for k, v := range e.args.Ints {
		env[k] = v
	}
	for k, v := range e.args.Floats {
		env[k] = int64(v)
	}
	return env
}

// setupMemory allocates DRAM regions for every map clause (and the
// profiler's flush region) and performs the to-device transfers.
func (e *engine) setupMemory() error {
	alloc := int64(0)
	bump := func(words int64) int64 {
		base := alloc
		alloc += words
		alloc = (alloc + 15) &^ 15 // 64-byte alignment
		return base
	}
	e.profBase = bump(profRegionWords)

	env := e.scalarEnv()
	lat := int64(e.cfg.DRAM.LatencyCycles)
	beat := int64(e.cfg.DRAM.BeatBytes)

	for _, m := range e.ck.K.Maps {
		var low, length int64
		if m.Scalar {
			low, length = 0, 1
		} else {
			var err error
			low, err = m.Low.Eval(env)
			if err != nil {
				return fmt.Errorf("sim: map %s low: %w", m.Name, err)
			}
			length, err = m.Len.Eval(env)
			if err != nil {
				return fmt.Errorf("sim: map %s len: %w", m.Name, err)
			}
			if length <= 0 {
				return fmt.Errorf("sim: map %s has non-positive length %d", m.Name, length)
			}
		}
		base := bump(length)
		e.mapBase[m.Name] = base
		e.mapLow[m.Name] = low
		e.mapLen[m.Name] = length

		bytes := length * mem.WordBytes
		if m.Dir == ir.MapTo || m.Dir == ir.MapToFrom {
			data, err := e.hostWords(m, low, length)
			if err != nil {
				return err
			}
			if err := e.dram.WriteWords(base, data); err != nil {
				return err
			}
			e.transferTo += bytes
			e.transferCycles += lat + (bytes+beat-1)/beat
		}
		if m.Dir == ir.MapFrom || m.Dir == ir.MapToFrom {
			e.transferFrom += bytes
			e.transferCycles += lat + (bytes+beat-1)/beat
		}
	}
	if alloc > int64(e.cfg.DRAM.Words) {
		return fmt.Errorf("sim: mapped data (%d words) exceeds DRAM capacity (%d words)", alloc, e.cfg.DRAM.Words)
	}
	// The kernel and the profiler's flushes stay inside what the map
	// clauses laid out: back that now and the run never re-backs the store.
	e.dram.Reserve(alloc)
	return nil
}

// hostWords fetches the host-side initial contents for a to/tofrom map.
func (e *engine) hostWords(m ir.Map, low, length int64) ([]uint32, error) {
	if m.Scalar {
		if m.Float {
			return mem.FloatsToWords([]float32{float32(e.args.Floats[m.Name])}), nil
		}
		return mem.IntsToWords([]int32{int32(e.args.Ints[m.Name])}), nil
	}
	buf, ok := e.args.Buffers[m.Name]
	if !ok {
		return nil, fmt.Errorf("sim: missing buffer argument %q", m.Name)
	}
	if int64(len(buf.Words)) < low+length {
		return nil, fmt.Errorf("sim: buffer %q has %d words, map needs [%d,%d)",
			m.Name, len(buf.Words), low, low+length)
	}
	return buf.Words[low : low+length], nil
}

// setupParams resolves the kernel parameter array.
func (e *engine) setupParams() error {
	e.params = make([]hw.Value, len(e.ck.K.Params))
	e.globalBase = make([]int64, len(e.ck.GlobalNames))
	for i, p := range e.ck.K.Params {
		if p.Pointer {
			base, ok := e.mapBase[p.Name]
			if !ok {
				return fmt.Errorf("sim: pointer param %q has no map", p.Name)
			}
			// Kernel element indices are host-pointer relative: element i
			// lands at base + (i - low).
			adj := base - e.mapLow[p.Name]
			e.params[i] = hw.Value{I: adj}
			gi := e.ck.GlobalIndex(p.Name)
			if gi >= 0 {
				e.globalBase[gi] = adj
			}
			continue
		}
		if p.Float {
			e.params[i] = hw.Value{F: float32(e.args.Floats[p.Name])}
		} else {
			e.params[i] = hw.Value{I: e.args.Ints[p.Name]}
		}
	}
	return nil
}

// flushProfile models the profiling unit writing a buffer to DRAM.
func (e *engine) flushProfile(cycle int64, bytes int) {
	words := bytes / mem.WordBytes
	if words <= 0 {
		return
	}
	if e.profOff+int64(words) > profRegionWords {
		e.profOff = 0
	}
	// The flush payload is all zeros and the profiling region is never
	// read back, so one shared scratch buffer serves every flush (the
	// DRAM copies the data at accept time).
	if cap(e.profScratch) < words {
		e.profScratch = make([]uint32, words)
	}
	req := e.profRequest()
	req.WordAddr, req.Words, req.Data = e.profBase+e.profOff, words, e.profScratch[:words]
	e.profOff += int64(words)
	// Ignore submit errors: the region is pre-sized.
	_ = e.dram.Submit(req)
}

// profRequest returns a flush write request from the free list, or a new
// one whose completion puts it back there: the DRAM is done with a request
// once its OnComplete has run.
func (e *engine) profRequest() *mem.Request {
	if n := len(e.profReqs); n > 0 {
		req := e.profReqs[n-1]
		e.profReqs = e.profReqs[:n-1]
		return req
	}
	req := &mem.Request{Thread: -1, Write: true}
	req.OnComplete = func(int64, []uint32) { e.profReqs = append(e.profReqs, req) }
	return req
}

// ctxCheckMask throttles context polls in the event loop: the context is
// consulted once every ctxCheckMask+1 iterations, so cancellation latency
// is bounded without a per-cycle atomic load on the hot path.
const ctxCheckMask = 1<<12 - 1

func (e *engine) run(ctx context.Context) error {
	maxCycles := e.cfg.MaxCycles
	iter := uint64(0)
	done := ctx.Done()
	e.profNext = e.prof.NextBoundary()
	e.nextStartAt = math.MaxInt64
	if e.nextStart < len(e.threads) {
		e.nextStartAt = e.threads[e.nextStart].startAt
	}
	for {
		if e.nDone == len(e.threads) && !e.dram.Busy() {
			break
		}
		if iter&ctxCheckMask == 0 && done != nil {
			select {
			case <-done:
				return &ErrCanceled{Kernel: e.ck.K.Name, Cycle: e.cycle, Cause: ctx.Err()}
			default:
			}
		}
		iter++
		progress := false
		e.woken = false
		for e.nextStartAt <= e.cycle {
			e.startThread(e.threads[e.nextStart])
			e.nextStart++
			progress = true
			e.nextStartAt = math.MaxInt64
			if e.nextStart < len(e.threads) {
				e.nextStartAt = e.threads[e.nextStart].startAt
			}
		}
		e.fireTimedWakes()
		if e.stepDue() || e.nCoast > 0 {
			progress = true // a coasting frame moves every cycle
		}
		if e.runErr != nil {
			return e.runErr
		}
		if e.cycle >= e.profNext {
			// Settle sleeping frames' owed stalls before closing the
			// window, so each sample window sees the same stall counts as
			// per-cycle stepping. The boundary cycle itself is included:
			// per-cycle stepping charges the stall for cycle c before the
			// window closing at c is flushed.
			for _, t := range e.threads[:e.nextStart] {
				for _, f := range t.active {
					if f.sleepStall && f.sleepFrom >= 0 && f.sleepFrom < e.cycle {
						f.pendStalls += e.cycle - f.sleepFrom
						f.sleepFrom = e.cycle
					}
					if f.pendStalls != 0 {
						e.chargeStalls(t, f)
					}
				}
				if t.pendInt != 0 || t.pendFp != 0 {
					e.prof.AddCompute(t.id, t.pendInt, t.pendFp)
					t.pendInt, t.pendFp = 0, 0
				}
			}
			e.prof.Tick(e.cycle)
			e.profNext = e.prof.NextBoundary()
		}
		if e.dram.Pending(e.cycle) {
			e.dram.Tick(e.cycle)
		}

		if !progress {
			next := e.nextEventCycle()
			if next < 0 {
				if e.nDone == len(e.threads) && !e.dram.Busy() {
					// This cycle's DRAM tick drained the last write (a
					// profile flush) after every thread had finished:
					// the run ends where the loop's exit check would end it.
					e.cycle++
					break
				}
				return &ErrDeadlock{Kernel: e.ck.K.Name, Cycle: e.cycle}
			}
			if next > e.cycle+1 {
				// Per-cycle stepping charges skipped-span stalls once per
				// THREAD (not per frame), attributed to the last blocked
				// frame in issue order. Sleeping frames' sleepFrom advances
				// past the span so their owed-stall settlement covers only
				// stepped cycles.
				skip := next - e.cycle - 1
				for _, t := range e.threads[:e.nextStart] {
					var last *frame
					for _, f := range t.active {
						if f.stalledNow {
							last = f
						}
						if f.sleepFrom >= 0 {
							f.sleepFrom += skip
						}
					}
					if last != nil {
						last.pendStalls += skip
					}
				}
				e.cycle = next - 1
				e.jumps++
			}
		} else if e.nCoast > 0 && e.due.empty() {
			// Until the next event only coasting frames move, and they need
			// no step: per-cycle stepping would step nothing in between and,
			// the coasters counting as progress, jump nowhere.
			e.cycle = e.coastIdleUntil() - 1
		}
		e.cycle++
		if e.cycle > maxCycles {
			return &ErrMaxCycles{Kernel: e.ck.K.Name, Limit: maxCycles}
		}
	}
	// The final profiler flush still writes its buffers out; drain the
	// traffic so DRAM statistics include it.
	e.prof.Finalize(e.cycle)
	for e.dram.Busy() {
		e.dram.Tick(e.cycle)
		e.cycle++
	}
	return nil
}

// stepDue steps what is due this cycle: threads in id order, each thread's
// ready frames in issue order. Both sets are re-read after every step, so a
// wake raised by a step reaches a later thread (or a later frame of the
// stepping thread) this cycle and an earlier one next cycle — the order in
// which a scan over every thread and frame would have come across it. A
// thread whose walk leaves it no ready frame drops out of the due set. It
// stops at the first execution error (engine.runErr).
func (e *engine) stepDue() (progress bool) {
	for id := e.due.next(0); id >= 0; id = e.due.next(id + 1) {
		t := e.threads[id]
		if len(t.landing) > 0 {
			progress = true
			if e.land(t) {
				if t.ready.empty() {
					e.due.del(id)
				}
				continue
			}
		}
		e.threadVisits++
		// Frames spawned during the walk are ready but sit past its end,
		// so they step next cycle. A frame that blocks or finishes takes
		// itself out of the ready set (sleepFrame, finishGraph).
		n := len(t.active)
		retired := false
		for i := t.ready.next(0); i >= 0 && i < n; i = t.ready.next(i + 1) {
			f := t.active[i]
			e.frameVisits++
			if e.stepFrame(t, f) {
				progress = true
			} else {
				e.failedSteps++
			}
			if e.runErr != nil {
				return progress
			}
			if f.finished {
				retired = true
			}
			if i == n-1 {
				break // usual case: the innermost loop, last in issue order
			}
		}
		if len(t.landing) > 0 {
			t.readyLanded()
		}
		if retired {
			t.compact()
		}
		if t.ready.empty() {
			e.due.del(id)
		}
		if id == len(e.threads)-1 {
			break
		}
	}
	return progress
}

// land ends the coasts of the thread's frames that enter their landing
// stage this cycle, at the start of its turn: stepping would have stepped
// them into that stage in the turn, and no other frame of the thread can
// change what anticipate then reads (their own VLOs, and slots and holders
// of their graph, which only other threads' frames share). A landed frame
// that anticipate leaves awake steps next cycle: it joins the ready set
// after the walk (readyLanded). land reports whether the thread has nothing
// else to step, in which case the walk is skipped and the landed frames are
// readied at once.
func (e *engine) land(t *thread) (only bool) {
	for _, f := range t.landing {
		f.coasting = false
		e.nCoast--
		f.sleepUntil = 0
		if f.mayWait(e.cycle) {
			e.anticipate(f)
		}
	}
	if t.ready.empty() {
		t.readyLanded()
		return true
	}
	return false
}

// readyLanded puts the landed frames that stayed awake into the ready set.
func (t *thread) readyLanded() {
	for i, f := range t.landing {
		if f.sleepUntil == 0 {
			t.ready.add(int(f.ai))
		}
		t.landing[i] = nil
	}
	t.landing = t.landing[:0]
}

// compact drops finished frames from the active list and renumbers the
// survivors; ready membership follows the frames.
func (t *thread) compact() {
	keep := t.active[:0]
	clear(t.ready)
	for _, f := range t.active {
		if f.finished {
			continue
		}
		f.ai = int32(len(keep))
		if f.sleepUntil == 0 {
			t.ready.add(len(keep))
		}
		keep = append(keep, f)
	}
	t.active = keep
}

// nextEventCycle computes the earliest future cycle at which any state can
// change. On a no-progress cycle every live frame is asleep (its wake is in
// the heap, or it waits on an external event such as a DRAM completion, a
// freed port, or a freed stage slot), so the answer is the earliest of: an
// external wake that fired this cycle (next cycle), the wake heap top
// (stale or not: a jump never passes an entry), DRAM activity, or the next
// thread start. Returns -1 if nothing is pending (deadlock).
//
// While any frame sleeps on a busy memory port (nPortSleep > 0) the jump
// is additionally capped at the next profiling sample-window boundary.
// Port sleepers are woken by DRAM completions, which the DRAM's
// NextEventCycle already pins exactly, so the only per-cycle observable a
// jump could disturb in that state is boundary settlement and its flush
// traffic; the cap keeps those at the same cycles as per-cycle stepping.
// Jumps with no port sleepers are deliberately NOT capped: historical
// engine behaviour lets them overshoot a boundary (settlement then runs
// at the landing cycle), and the recorded traces bake that timing in.
func (e *engine) nextEventCycle() int64 {
	if e.woken {
		// A DRAM completion or similar external event woke a frame this
		// cycle (e.g. a completed-but-unretired VLO); it must step next
		// cycle.
		return e.cycle + 1
	}
	next := int64(-1)
	consider := func(c int64) {
		if c > e.cycle && (next < 0 || c < next) {
			next = c
		}
	}
	if len(e.wakes) > 0 {
		consider(e.wakes[0].at)
	}
	if d := e.dram.NextEventCycle(e.cycle); d >= 0 {
		consider(d)
	}
	if e.nextStart < len(e.threads) {
		consider(e.threads[e.nextStart].startAt)
	}
	if next >= 0 && e.nPortSleep > 0 && e.profNext > e.cycle && e.profNext < next {
		next = e.profNext
	}
	return next
}

// coastIdleUntil returns the first cycle after this one at which anything
// but a coasting frame can act: the wake-heap top (the earliest landing at
// the latest), DRAM activity, the next thread start or the next
// sample-window boundary.
func (e *engine) coastIdleUntil() int64 {
	next := e.wakes[0].at
	if d := e.dram.NextEventCycle(e.cycle); d >= 0 && d < next {
		next = d
	}
	if e.nextStartAt < next {
		next = e.nextStartAt
	}
	if e.profNext < next {
		next = e.profNext
	}
	return next
}

// timedWake is one wake-heap entry: frame f sleeps until cycle at.
type timedWake struct {
	at int64
	f  *frame
}

// fireTimedWakes pops every heap entry that has come due and readies its
// frame; a coasting frame lands, or is listed to land in its thread's turn.
// An entry is stale when its frame no longer sleeps until exactly that
// cycle (an external wake got there first, or the frame has since
// retired); dropping it changes nothing.
func (e *engine) fireTimedWakes() {
	for len(e.wakes) > 0 && e.wakes[0].at <= e.cycle {
		w := e.popWake()
		if w.f.sleepUntil == w.at {
			if f := w.f; f.coasting {
				if w.at == f.stageAt {
					// It lands in its thread's turn (stepDue), still
					// coasting until then.
					f.t.landing = append(f.t.landing, f)
					e.due.add(f.t.id)
					continue
				}
				f.coasting = false
				e.nCoast--
			}
			e.readyFrame(w.f)
		}
	}
}

// pushWake / popWake maintain the min-heap of timed frame wake-ups.
func (e *engine) pushWake(at int64, f *frame) {
	h := append(e.wakes, timedWake{at, f})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.wakes = h
}

func (e *engine) popWake() timedWake {
	h := e.wakes
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].at < h[l].at {
			l = r
		}
		if h[i].at <= h[l].at {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	e.wakes = h
	return top
}

// sleepFrame takes a blocked frame out of its thread's ready set until its
// earliest timed wake (pending retry or timed-VLO completion), which goes
// on the wake heap; frames blocked purely on external events (DRAM ports,
// async VLOs, barriers, child loops) sleep until woken by the completing
// event. stall records whether the skipped cycles count as pipeline stalls.
func (e *engine) sleepFrame(f *frame, stall bool) {
	wake := int64(math.MaxInt64)
	port := false
	for i := range f.pendings {
		p := &f.pendings[i]
		if p.kind == pendPort {
			port = true
		} else if p.retryAt < wake {
			wake = p.retryAt
		}
	}
	for _, o := range f.outstanding {
		if o.done {
			if e.cycle+1 < wake {
				wake = e.cycle + 1
			}
		} else if o.kind == vkTimed && o.doneCycle < wake {
			wake = o.doneCycle
		}
	}
	if wake <= e.cycle {
		return
	}
	f.sleepUntil = wake
	f.sleepFrom = e.cycle
	f.sleepStall = stall
	f.t.ready.del(int(f.ai))
	if port {
		f.portSleep = true
		e.nPortSleep++
	}
	if wake < math.MaxInt64 {
		e.pushWake(wake, f)
	}
}

// readyFrame puts a sleeping frame back into its thread's ready set and the
// thread into the due set; a frame that is already ready, or coasting, is
// left alone.
func (e *engine) readyFrame(f *frame) {
	if f.sleepUntil != 0 && !f.coasting {
		f.sleepUntil = 0
		f.t.ready.add(int(f.ai))
		e.due.add(f.t.id)
	}
}

// wakeFrame wakes one sleeping frame for a completion whose effect is
// confined to it (child loop finished, stage slot freed): sibling frames
// keep sleeping. A wake that is not raised only removes a step that could
// not have changed state (any step that makes progress is armed by its own
// timed or targeted wake), and sleeping frames settle owed stalls on wake
// and at window boundaries, so targeted wakes produce the traces a
// broadcast would.
func (e *engine) wakeFrame(f *frame) {
	e.readyFrame(f)
	e.woken = true
}

// wakePort wakes the frame whose external-memory transaction completed
// plus every frame of the thread pending on a memory port: the completion
// freed that port, so their retries can now go out.
func (e *engine) wakePort(t *thread, target *frame) {
	for _, f := range t.active {
		if f == target || f.portSleep {
			e.readyFrame(f)
		}
	}
	e.woken = true
}

// wakeThread wakes every sleeping frame of a thread (barrier release).
func (e *engine) wakeThread(t *thread) {
	for _, f := range t.active {
		e.readyFrame(f)
	}
	e.woken = true
}

// wakeAllThreads wakes every sleeping frame (barrier release).
func (e *engine) wakeAllThreads() {
	for _, t := range e.threads[:e.nextStart] {
		e.wakeThread(t)
	}
}

// newVLO / freeVLO recycle outstanding-VLO records.
func (e *engine) newVLO() *outVLO {
	if n := len(e.vloPool); n > 0 {
		o := e.vloPool[n-1]
		e.vloPool = e.vloPool[:n-1]
		return o
	}
	return &outVLO{}
}

func (e *engine) freeVLO(o *outVLO) {
	*o = outVLO{}
	e.vloPool = append(e.vloPool, o)
}

// getBuf / putBuf recycle external-store payload buffers. A buffer is
// returned in the store's OnComplete, which fires after the DRAM has
// copied the payload at accept time.
func (e *engine) getBuf(n int) []uint32 {
	if l := len(e.bufPool); l > 0 {
		b := e.bufPool[l-1]
		e.bufPool = e.bufPool[:l-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]uint32, n)
}

func (e *engine) putBuf(b []uint32) { e.bufPool = append(e.bufPool, b) }

// scratch returns the shared BRAM-transfer scratch buffer (BRAM accesses
// copy at call time, so one buffer serves all of them).
func (e *engine) scratch(n int) []uint32 {
	if cap(e.encScratch) < n {
		e.encScratch = make([]uint32, n)
	}
	return e.encScratch[:n]
}

func (e *engine) startThread(t *thread) {
	e.prof.SetState(e.cycle, t.id, profile.StateRunning)
	f := e.frameFor(t, e.ck.TopIdx)
	f.parent = nil
	f.loopVLO = nil
	e.activate(t, f)
}

// activate appends a fresh frame to its thread's active list, ready to step.
func (e *engine) activate(t *thread, f *frame) {
	f.ai = int32(len(t.active))
	t.active = append(t.active, f)
	t.ready.add(int(f.ai))
	e.due.add(t.id)
}

// frameFor returns the thread's cached frame for a graph, creating it on
// first use (hardware contexts are physical and reused across iterations).
func (e *engine) frameFor(t *thread, gi int) *frame {
	slot := gi*len(e.threads) + t.id
	if f := e.frames[slot]; f != nil {
		for _, o := range f.outstanding {
			e.freeVLO(o)
		}
		f.outstanding = f.outstanding[:0]
		f.pendings = f.pendings[:0]
		f.stage = -1
		f.finished = false
		f.sleepUntil = 0
		f.sleepFrom = -1
		f.stuckAt = -1
		f.sleepStall = false
		f.stalledNow = false
		f.portSleep = false
		f.holdsOcc = false
		f.minWait = math.MaxInt32
		f.timedUntil = 0
		f.enterCycle = e.cycle
		return f
	}
	cg := e.ck.Graphs[gi]
	f := &frame{
		cg:         cg,
		occ:        e.occ[gi],
		ow:         e.occW[gi],
		cw:         e.coastW[gi],
		gi:         int32(gi),
		t:          t,
		stage:      -1,
		sleepFrom:  -1,
		minWait:    math.MaxInt32,
		vals:       e.allocVals(len(cg.Nodes)),
		carries:    e.allocVals(cg.NumCarry),
		enterCycle: e.cycle,
	}
	e.frames[slot] = f
	return f
}

// allocVals carves a value block out of the engine's frame arena (frames
// are never freed individually; the arena lives as long as the engine).
func (e *engine) allocVals(n int) []hw.Value {
	if n == 0 {
		return nil
	}
	if len(e.valArena)+n > cap(e.valArena) {
		size := valArenaBlock
		if n > size {
			size = n
		}
		e.valArena = make([]hw.Value, 0, size)
	}
	e.valArena = e.valArena[:len(e.valArena)+n]
	out := e.valArena[len(e.valArena)-n : len(e.valArena) : len(e.valArena)]
	return out
}

func (e *engine) finish() (*Result, error) {
	r := &Result{
		Cycles:               e.cycle,
		ScalarsOut:           map[string]float64{},
		ScalarsOutInt:        map[string]int64{},
		DRAM:                 e.dram.Stats(),
		TransferToDevBytes:   e.transferTo,
		TransferFromDevBytes: e.transferFrom,
		TransferCycles:       e.transferCycles,
		Steps:                e.steps,
		FailedSteps:          e.failedSteps,
		FrameVisits:          e.frameVisits,
		ThreadVisits:         e.threadVisits,
		Jumps:                e.jumps,
	}
	last := int64(0)
	for _, t := range e.threads {
		r.ThreadStart = append(r.ThreadStart, t.startAt)
		r.ThreadEnd = append(r.ThreadEnd, t.endCycle)
		if t.endCycle > last {
			last = t.endCycle
		}
		stalls, intOps, fpOps, _, _ := e.prof.TotalsFor(t.id)
		r.Stalls = append(r.Stalls, stalls)
		r.IntOps = append(r.IntOps, intOps)
		r.FpOps = append(r.FpOps, fpOps)
	}
	r.Cycles = last
	r.ItersByLoop = make(map[string]int64)
	r.ExecsByLoop = make(map[string]int64)
	r.ActiveByLoop = make(map[string]int64)
	if e.prof != nil {
		r.Prof = e.prof
		r.StallsByLoop = make(map[string]int64)
	}
	for gi, cg := range e.ck.Graphs {
		if r.StallsByLoop != nil && e.loopStalls[gi] != 0 {
			r.StallsByLoop[cg.Name] += e.loopStalls[gi]
		}
		if cg.CondIdx < 0 {
			continue // top region, not a loop
		}
		r.ItersByLoop[cg.Name] += e.loopIters[gi]
		r.ExecsByLoop[cg.Name] += e.loopExecs[gi]
		r.ActiveByLoop[cg.Name] += e.loopSpans[gi]
	}
	for _, s := range e.sems {
		r.LockAcquisitions += s.Acquisitions
		r.LockContended += s.Contended
	}
	for _, bs := range e.brams {
		for _, b := range bs {
			r.BRAMWordsMoved += b.WordsMoved
			r.BRAMPortStalls += b.PortStalls
		}
	}

	// Write back from/tofrom maps.
	for _, m := range e.ck.K.Maps {
		if m.Dir == ir.MapTo {
			continue
		}
		base := e.mapBase[m.Name]
		length := e.mapLen[m.Name]
		data, err := e.dram.ReadWords(base, int(length))
		if err != nil {
			return nil, err
		}
		if m.Scalar {
			if m.Float {
				r.ScalarsOut[m.Name] = float64(mem.WordsToFloats(data)[0])
			} else {
				r.ScalarsOutInt[m.Name] = int64(mem.WordsToInts(data)[0])
			}
			continue
		}
		buf := e.args.Buffers[m.Name]
		copy(buf.Words[e.mapLow[m.Name]:], data)
	}
	// Recycle the word slab only on the clean-completion path: here the
	// DRAM is provably drained and no OnComplete callback can still fire.
	e.dram.Release()
	return r, nil
}
