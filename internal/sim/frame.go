package sim

import (
	"fmt"
	"math"

	"paravis/internal/hw"
	"paravis/internal/ir"
	"paravis/internal/profile"
)

// copyVal deep-copies a value (vector payloads get their own storage).
func copyVal(dst *hw.Value, src *hw.Value) {
	dst.I = src.I
	dst.F = src.F
	if src.V != nil {
		if cap(dst.V) < len(src.V) {
			dst.V = make([]float32, len(src.V))
		}
		dst.V = dst.V[:len(src.V)]
		copy(dst.V, src.V)
	}
}

// stepFrame advances one ready frame (sleepUntil == 0) by at most one
// stage. It reports whether any state changed; a frame that could not move
// has put itself to sleep (blockFrame, waitOcc) by the time it returns.
func (e *engine) stepFrame(t *thread, f *frame) bool {
	e.steps++
	// Settle sleep bookkeeping: charge the stalls the skipped cycles
	// would have accrued under per-cycle stepping.
	if f.sleepFrom >= 0 {
		if f.sleepStall {
			if skipped := e.cycle - f.sleepFrom - 1; skipped > 0 {
				f.pendStalls += skipped
			}
		}
		f.sleepFrom = -1
	}
	if f.portSleep {
		f.portSleep = false
		e.nPortSleep--
	}
	f.stalledNow = false
	progress := false

	// Retire completed internally-timed VLOs and compact the list (also
	// refreshing the minWait gate cache).
	if len(f.outstanding) > 0 {
		keep := f.outstanding[:0]
		mw := int32(math.MaxInt32)
		tu := int64(0)
		for _, o := range f.outstanding {
			if !o.done {
				switch o.kind {
				case vkTimed:
					if o.doneCycle <= e.cycle {
						o.done = true
						progress = true
					} else if o.doneCycle > tu {
						tu = o.doneCycle
					}
				case vkBarrier:
					if e.barrier.Generation() > o.barrierGen {
						o.done = true
						progress = true
						e.prof.SetState(e.cycle, t.id, profile.StateRunning)
					}
				}
			}
			if !o.done {
				if o.waitStage < mw {
					mw = o.waitStage
				}
				keep = append(keep, o)
			} else {
				e.freeVLO(o)
			}
		}
		f.outstanding = keep
		f.minWait = mw
		f.timedUntil = tu
	}

	// Retry pending VLO issues (busy ports, taken locks). The token sits
	// in the issuing stage until they go out.
	if len(f.pendings) > 0 {
		keep := f.pendings[:0]
		for _, p := range f.pendings {
			if e.cycle < p.retryAt {
				keep = append(keep, p)
				continue
			}
			ok, err := e.issueVLO(t, f, p.pos)
			if err != nil {
				e.fail(err)
				return progress
			}
			if ok {
				progress = true
			} else {
				p.retryAt = e.retryCycle(f, p)
				keep = append(keep, p)
			}
		}
		f.pendings = keep
		if len(f.pendings) > 0 {
			// Port-blocked issues are arbitration stalls; lock waits are
			// the Spinning state and tracked by the state recorder.
			stall := false
			for _, p := range f.pendings {
				if p.kind == pendPort {
					stall = true
					break
				}
			}
			e.blockFrame(t, f, stall, true)
			return progress
		}
	}

	// Advance the token.
	var s int32
	if f.stage < 0 {
		// Start an iteration: enter stage 0.
		ok, stall, until := true, false, int64(0)
		if len(f.outstanding) > 0 && f.minWait <= 0 {
			ok, stall, until = e.canEnterSlow(t, f, 0)
		} else if f.cg.Static[0] {
			if until = e.slotHeld(t, f, 0); until != 0 {
				ok, stall = false, true
			}
		}
		if !ok {
			e.blockFrame(t, f, stall, until == 0)
			if until != 0 {
				e.waitOcc(f, 0, until)
			}
			return progress
		}
		e.beginIteration(f)
		s = 0
	} else {
		// Loop-exit decision at the end of the check stage (CheckAt is -2
		// on non-loop graphs, matching no stage).
		if f.stage == f.cg.CheckAt {
			if f.vals[f.cg.CondIdx].I == 0 {
				if blocked, stall := drainBlock(f); blocked {
					// Drain speculative loads before leaving the pipeline.
					e.blockFrame(t, f, stall, true)
					return progress
				}
				e.finishGraph(t, f)
				return true
			}
		}

		s = f.stage + 1
		if int(s) == f.cg.Depth {
			// Iteration complete: wrap around (or finish the top region).
			if blocked, stall := drainBlock(f); blocked {
				e.blockFrame(t, f, stall, true)
				return progress
			}
			e.freeOcc(t, f)
			if f.cg.CondIdx < 0 {
				f.stage = -1
				e.finishGraph(t, f)
				return true
			}
			// Latch carried registers for the next iteration.
			for i, up := range f.cg.CarryUpdates {
				copyVal(&f.carries[i], &f.vals[up])
			}
			f.stage = -1
			return true
		}

		ok, stall, until := true, false, int64(0)
		if len(f.outstanding) > 0 && s >= f.minWait {
			ok, stall, until = e.canEnterSlow(t, f, s)
		} else if f.cg.Static[s] {
			if until = e.slotHeld(t, f, s); until != 0 {
				ok, stall = false, true
			}
		}
		if !ok {
			e.blockFrame(t, f, stall, until == 0)
			if until != 0 {
				e.waitOcc(f, s, until)
			}
			return progress
		}
	}

	// Move the token into stage s — enterStage, hand-inlined into its one
	// hot call site: update occupancy, report compute activation, evaluate
	// the stage's pure closures, issue its VLOs.
	e.freeOcc(t, f)
	cg := f.cg
	if cg.Static[s] {
		f.occ[s] = int32(t.id)
		f.holdsOcc = true
	}
	f.stage = s
	f.stageAt = e.cycle
	st := &cg.Stages[s]
	t.pendInt += int64(st.IntOps)
	t.pendFp += int64(st.FpLanes)
	if st.Eval != nil {
		st.Eval(f.vals, &t.env)
	}
	for _, pos := range st.Issue {
		ok, err := e.issueVLO(t, f, pos)
		if err != nil {
			e.fail(err)
			return progress
		}
		if !ok {
			kind := pendPort
			if cg.Nodes[pos].Op == ir.OpLock {
				kind = pendLock
			}
			f.pendings = append(f.pendings, pending{pos: pos, kind: kind, retryAt: e.cycle + 1})
		}
	}
	if cg.CoastTo[s]-s >= minCoast && f.minWait-s > minCoast && len(f.pendings) == 0 {
		e.coast(t, f)
	}
	if !f.coasting && f.mayWait(e.cycle) {
		e.anticipate(f)
	}
	return true
}

// anticipate puts a frame that has just entered its stage, in its turn of
// this cycle, to sleep when its next step must fail for a reason only an
// event clears, so that it is not stepped just to find that out:
//   - every pending issue waits for a memory port (wakePort readies it);
//   - an undone DRAM or child VLO gates the next stage (wakePort,
//     finishGraph);
//   - the next stage is a static slot whose holder was already found stuck
//     there (see stuck; freeOcc wakes the frame, registered as by waitOcc).
//     A holder not known to be stuck tends to leave in its next step, where
//     a failed step costs less than a sleep and a wake.
//
// Callers test mayWait first, which rules out CheckAt, the last stage and
// a timed VLO the next step may retire. An undone barrier VLO also keeps
// the frame awake: the step that retires it sets the thread state. Done
// VLOs are ignored: a landing coaster still lists the ones that completed
// while it coasted, which the step entering its landing stage would have
// retired.
//
// The sleep starts now, as if the failed step had been taken, but without
// its stall: settlement charges the cycles from the next one to the wake's
// minus one, which are the failed step's stall plus the ones skipped after
// it.
func (e *engine) anticipate(f *frame) bool {
	s := f.stage
	gated, stall := false, false
	for _, o := range f.outstanding {
		switch {
		case o.done || o.kind == vkTimed:
			// retired by the step a stepping engine takes now (mayWait)
		case o.kind == vkBarrier:
			return false
		case o.waitStage <= s+1:
			gated = true
			stall = stall || o.kind != vkChild
		}
	}
	slot := false
	if len(f.pendings) > 0 {
		for _, p := range f.pendings {
			if p.kind != pendPort {
				return false
			}
		}
		stall = true
	} else if !gated {
		h := f.occ[s+1]
		if h < 0 || !e.frames[int(f.gi)*len(e.threads)+int(h)].stuck(e.cycle, int32(f.t.id)) {
			return false
		}
		slot, stall = true, true
	}
	f.stuckAt = e.cycle
	if f.holdsOcc {
		e.turnWatchers(f)
	}
	f.stalledNow = stall
	f.sleepUntil = math.MaxInt64
	f.sleepFrom = e.cycle
	f.sleepStall = stall
	f.t.ready.del(int(f.ai))
	if len(f.pendings) > 0 {
		f.portSleep = true
		e.nPortSleep++
	}
	if slot {
		e.waitSlot(f, s+1)
	}
	return true
}

// minCoast is the shortest run coast takes: for fewer stages the wake-heap
// push and pop cost more than the steps they replace. Chosen by measuring
// the seed workloads.
const minCoast = 3

// coastStamp records a coast through a static stage: the coasting thread
// and the cycle its token would have entered the stage under per-cycle
// stepping. It leaves the stage at at+1, in its thread's turn.
type coastStamp struct {
	tid int32
	at  int64
}

// noStamp holds no slot at any cycle the engine steps.
var noStamp = coastStamp{tid: -1, at: -2}

// wake reads the stamp for thread tid asking at cycle now, as slotHeld
// does: the slot is held if the coaster entered it this cycle and the asker
// steps later, or entered it last cycle and the asker steps earlier. The
// answer is the cycle freeOcc's wake would have stepped the asker at.
func (st coastStamp) wake(now int64, tid int32) int64 {
	switch {
	case now == st.at && tid > st.tid:
		return st.at + 1
	case now == st.at+1 && tid < st.tid:
		return st.at + 2
	}
	return 0
}

// coast lets a frame that has just entered stage s skip the steps of a run
// of stages whose path is clear, when per-cycle stepping provably moves it
// one stage per cycle: CoastTo[s] bounds the run statically, and coast
// narrows it to stages below the frame's first VLO gate, to entries inside
// the current sample window (their compute counts are added now), and to
// the stages before any other token of the graph that could stop it. The
// frame runs the closures of s+1..z now, holds the static slots of s..z-1
// through stamps and z for real, and sleeps on one timed wake: at the cycle
// it steps out of z, or, when anticipate might sleep it in z, at the cycle
// it enters z, to land in its thread's turn (engine.land). Until then it
// ignores every other wake and the cycle counts as progress
// (engine.nCoast), as its steps would have.
func (e *engine) coast(t *thread, f *frame) {
	s := f.stage
	z := f.cg.CoastTo[s]
	if z >= f.minWait {
		z = f.minWait - 1
	}
	room := e.profNext - e.cycle
	if room < minCoast {
		return
	}
	if room < int64(z-s) {
		z = s + int32(room)
	}
	if z-s < minCoast {
		return
	}
	// A token standing in the run may stay there, so the run ends one stage
	// before it. A coasting token ahead moves on one stage per cycle until
	// it lands, as the frame will behind it, so only its landing stage
	// counts (with one exception below). Tokens in static stages are found
	// by their slots (a coasting one holds its landing slot); tokens in
	// reordering stages are not tracked, so if the run has one (s itself,
	// or the gate stage of a retired VLO) the graph's other frames are asked.
	cg := f.cg
	ask := !cg.Static[s]
	for k := s + 1; k <= z; k++ {
		if !cg.Static[k] {
			ask = true
		} else if f.occ[k] >= 0 {
			z = k - 1
			break
		}
	}
	if ask {
		n := len(e.threads)
		for _, g := range e.frames[int(f.gi)*n : int(f.gi+1)*n] {
			if g == nil || g == f || g.stage < s {
				continue
			}
			switch p := g.virtualStage(e.cycle); {
			case p == s:
				return // it may overtake the coaster
			case p == s+1 && g.t.id > t.id:
				// It leaves s+1 in its thread's turn, after the frame's.
				return
			case p > s && g.stage <= z:
				z = g.stage - 1
			}
		}
	}
	if z-s < minCoast {
		return
	}
	gated := false // z+1 by a DRAM or child VLO, which may sleep the frame on landing
	for _, o := range f.outstanding {
		if !o.done {
			if o.kind == vkBarrier {
				return // its release is retired by a step, which sets the thread state
			}
			gated = gated || o.kind != vkTimed && o.waitStage <= z+1
		}
	}

	for k := s + 1; k <= z; k++ {
		st := &cg.Stages[k]
		t.pendInt += int64(st.IntOps)
		t.pendFp += int64(st.FpLanes)
		if st.Eval != nil {
			st.Eval(f.vals, &t.env)
		}
	}
	// Nobody has stepped since the frame took slot s, so no frame waits on
	// it and releasing it wakes nobody.
	if f.holdsOcc {
		f.holdsOcc = false
		f.occ[s] = -1
	}
	tid, stamps := int32(t.id), e.stamps[f.gi]
	for k := s; k < z; k++ {
		if cg.Static[k] {
			stamps[k] = coastStamp{tid: tid, at: e.cycle + int64(k-s)}
		}
	}
	if cg.Static[z] {
		f.occ[z] = tid
		f.holdsOcc = true
	}
	f.stage = z
	f.stageAt = e.cycle + int64(z-s)
	f.coasting = true
	e.nCoast++
	// The frame lands in its turn of stageAt (engine.land) when anticipate
	// might sleep it there (as mayWait would test then): no timed VLO is
	// left to retire, and a DRAM or child VLO gates z+1 or a token holds z+1
	// that is found stuck there by then. No token can take a free z+1 first
	// (it would have to pass the frame), so a holder not stuck yet is
	// watched: turnWatchers moves the landing to the turn if it gets stuck.
	// Otherwise the frame just wakes to step at the next cycle, which takes
	// no turn.
	f.sleepUntil = f.stageAt + 1
	if z != cg.CheckAt && int(z)+1 < cg.Depth && f.timedUntil <= f.stageAt {
		if h := f.occ[z+1]; gated {
			f.sleepUntil = f.stageAt
		} else if h >= 0 {
			if g := e.frames[int(f.gi)*len(e.threads)+int(h)]; g.stuckAt >= g.stageAt {
				f.sleepUntil = f.stageAt
			} else {
				f.cw[z+1] = append(f.cw[z+1], f)
			}
		}
	}
	t.ready.del(int(f.ai))
	e.pushWake(f.sleepUntil, f)
}

// mayWait is anticipate's inlined first test at cycle now: the next step
// is a stage entry (not a loop exit or wrap), it retires no timed VLO (all
// are done by now), and a pending issue, a VLO gate or a held slot (only
// static stages are ever held) might stop it.
func (f *frame) mayWait(now int64) bool {
	s := f.stage + 1
	if int(s) >= len(f.occ) || len(f.pendings) == 0 && f.minWait > s && f.occ[s] < 0 {
		return false
	}
	return f.stage != f.cg.CheckAt && f.timedUntil <= now
}

// stuck reports whether a token holding its stage has been found blocked
// there before the turn of thread tid at cycle now: it failed a step in the
// stage, or anticipate slept it on entering, at stuckAt, which is before
// now or at now in an earlier thread's turn. A coasting token is not stuck
// in its landing stage before it lands (stuckAt stays below stageAt), nor
// is its stepping twin, which has not entered that stage yet, so the answer
// is stepping's.
func (f *frame) stuck(now int64, tid int32) bool {
	return f.stuckAt >= f.stageAt && (f.stuckAt < now || f.stuckAt == now && int32(f.t.id) < tid)
}

// virtualStage is where the frame's token stands at cycle now under
// per-cycle stepping: its stage, or for a coasting frame the stage it
// entered at now on the way to its landing stage.
func (f *frame) virtualStage(now int64) int32 {
	if f.coasting {
		return f.stage - int32(f.stageAt-now)
	}
	return f.stage
}

// addOut registers a newly issued VLO on its frame, folding its gate
// stage into the minWait cache and a timed one's completion into
// timedUntil.
func (f *frame) addOut(o *outVLO) {
	if o.waitStage < f.minWait {
		f.minWait = o.waitStage
	}
	if o.kind == vkTimed && o.doneCycle > f.timedUntil {
		f.timedUntil = o.doneCycle
	}
	f.outstanding = append(f.outstanding, o)
}

// blockFrame accounts a failed step: one stall if the block is stall-type,
// then sleep if the block can only clear through a timed or external wake.
// Occupancy blocks (canSleep=false) are slept separately by waitOcc, which
// also registers the thread for a freeOcc wake.
func (e *engine) blockFrame(t *thread, f *frame, stall, canSleep bool) {
	if f.stuckAt < f.stageAt {
		f.stuckAt = e.cycle
		if f.holdsOcc {
			e.turnWatchers(f)
		}
	}
	if stall {
		f.pendStalls++
		f.stalledNow = true
	}
	if canSleep {
		e.sleepFrame(f, stall)
	}
}

// retryCycle computes when a pending issue should be retried.
func (e *engine) retryCycle(f *frame, p pending) int64 {
	if p.kind == pendLock {
		return e.cycle + int64(e.cfg.SpinRetry)
	}
	return e.cycle + 1
}

// fail records a fatal execution error; the main loop surfaces it.
func (e *engine) fail(err error) {
	if e.runErr == nil {
		e.runErr = err
	}
}

// canEnterSlow scans the outstanding list when an undone VLO may gate
// stage s (the inlinable fast path above rules the scan out via minWait).
// until is slotHeld's answer when the stage slot is what blocks.
func (e *engine) canEnterSlow(t *thread, f *frame, s int32) (ok, stall bool, until int64) {
	blocked := false
	for _, o := range f.outstanding {
		if !o.done && o.waitStage <= s {
			blocked = true
			if o.kind != vkChild {
				return false, true, 0
			}
		}
	}
	if blocked {
		return false, false, 0
	}
	if f.cg.Static[s] {
		if until := e.slotHeld(t, f, s); until != 0 {
			return false, true, until
		}
	}
	return true, false, 0
}

// slotHeld reports whether static stage s is held against thread t: 0 when
// it is free, math.MaxInt64 when a token holds it (freeOcc wakes the
// waiter), or, when a coasting token would be in it under per-cycle
// stepping, the cycle freeOcc's wake would have stepped the waiter at.
func (e *engine) slotHeld(t *thread, f *frame, s int32) int64 {
	if o := f.occ[s]; o >= 0 && o != int32(t.id) {
		return math.MaxInt64
	}
	if e.nCoast > 0 {
		return e.stamps[f.gi][s].wake(e.cycle, int32(t.id))
	}
	return 0
}

// drainBlock classifies a wait on the frame's remaining outstanding VLOs
// (iteration end / loop exit): true when a non-child VLO is pending.
func drainBlock(f *frame) (blocked, stall bool) {
	for _, o := range f.outstanding {
		if !o.done {
			blocked = true
			if o.kind != vkChild {
				return true, true
			}
		}
	}
	return blocked, false
}

// chargeStalls settles f's owed stalls: into its loop's ledger slot and
// into the profiling unit's counter for thread t.
func (e *engine) chargeStalls(t *thread, f *frame) {
	e.loopStalls[f.gi] += f.pendStalls
	e.prof.AddStalls(t.id, f.pendStalls)
	f.pendStalls = 0
}

// beginIteration loads carried-register values into their node slots.
func (e *engine) beginIteration(f *frame) {
	e.loopIters[f.gi]++
	for i, pos := range f.cg.CarryPos {
		if pos >= 0 {
			copyVal(&f.vals[pos], &f.carries[i])
		}
	}
}

// turnWatchers is called when the token holding its stage's slot is first
// found stuck there. A coaster landing right behind it that stepping would
// ask about it (stuck's rule, for the landing cycle and the coaster's
// thread) now lands in its turn: by a timed wake, or, when it lands this
// cycle in a later thread's turn, through its thread's landing list.
func (e *engine) turnWatchers(h *frame) {
	s := h.stage
	w := h.cw[s]
	if len(w) == 0 {
		return
	}
	for i, g := range w {
		if g.coasting && g.stage == s-1 && g.sleepUntil == g.stageAt+1 {
			switch {
			case e.cycle < g.stageAt:
				g.sleepUntil = g.stageAt
				e.pushWake(g.stageAt, g)
			case e.cycle == g.stageAt && h.t.id < g.t.id:
				g.sleepUntil = g.stageAt
				g.t.landing = append(g.t.landing, g)
				e.due.add(g.t.id)
			}
		}
		w[i] = nil
	}
	h.cw[s] = w[:0]
}

// freeOcc releases the token's static-stage slot and wakes the frames
// sleeping on it. freeOcc only runs on progress paths, so waiters later in
// the thread order still step this cycle — exactly when per-cycle polling
// would have observed the freed slot. The holdsOcc guard keeps the call an
// inlined branch on the (common) non-static stages.
func (e *engine) freeOcc(t *thread, f *frame) {
	if f.holdsOcc {
		e.freeOccSlow(t, f)
	}
}

// freeOccSlow relies on the holdsOcc invariant: it is only set in
// enterStage (static stage, occ slot taken by this thread) and every
// f.stage change since went through freeOcc or the frameFor reset, so the
// slot is still this token's and the static/ownership checks are implied.
func (e *engine) freeOccSlow(t *thread, f *frame) {
	f.holdsOcc = false
	s := f.stage
	f.occ[s] = -1
	if w := f.ow[s]; len(w) > 0 {
		for i := range w {
			e.wakeFrame(w[i])
			w[i] = nil
		}
		f.ow[s] = w[:0]
	}
	if w := f.cw[s]; len(w) > 0 {
		clear(w) // the slot stays free for them: they land plainly
		f.cw[s] = w[:0]
	}
}

// waitOcc sleeps a frame blocked on a held slot (sleepFrame arms any
// earlier timed wake, e.g. a speculative load retiring mid-wait). A token's
// hold is released by freeOcc, which wakes the frame registered here; a
// coast stamp's hold ends at a known cycle (until), which becomes a timed
// wake instead.
func (e *engine) waitOcc(f *frame, s int32, until int64) {
	e.sleepFrame(f, true)
	if f.sleepUntil == 0 {
		return // still ready: it steps again next cycle
	}
	if until < f.sleepUntil {
		f.sleepUntil = until
		e.pushWake(until, f)
		return
	}
	if until != math.MaxInt64 {
		return // its own timed wake comes no later than the stamp's
	}
	e.waitSlot(f, s)
}

// waitSlot registers a sleeping frame for freeOcc's wake on slot s.
func (e *engine) waitSlot(f *frame, s int32) {
	for _, w := range f.ow[s] {
		if w == f {
			return
		}
	}
	f.ow[s] = append(f.ow[s], f)
}

// issueVLO attempts to issue one variable-latency operation. It returns
// false when the issue must be retried (busy port, taken semaphore).
func (e *engine) issueVLO(t *thread, f *frame, pos int32) (bool, error) {
	cn := &f.cg.Nodes[pos]

	// Predicated-off operations complete immediately (skipped loops yield
	// their initial carry values).
	if cn.Pred >= 0 && f.vals[cn.Pred].I == 0 {
		e.completeSkipped(f, cn, pos)
		return true, nil
	}

	switch cn.Op {
	case ir.OpLoad, ir.OpStore:
		return e.issueMem(t, f, cn, pos)
	case ir.OpLock:
		sem := e.sems[cn.SemID]
		ok, err := sem.TryAcquire(t.id)
		if err != nil {
			return false, err
		}
		if !ok {
			e.prof.SetState(e.cycle, t.id, profile.StateSpinning)
			return false, nil
		}
		e.prof.SetState(e.cycle, t.id, profile.StateCritical)
		o := e.newVLO()
		o.pos, o.waitStage, o.kind = pos, cn.WaitStage, vkTimed
		o.doneCycle = e.cycle + int64(e.ck.Sched.Cfg.Lat.MinLock)
		f.addOut(o)
		return true, nil
	case ir.OpUnlock:
		if err := e.sems[cn.SemID].Release(t.id); err != nil {
			return false, err
		}
		e.prof.SetState(e.cycle, t.id, profile.StateRunning)
		o := e.newVLO()
		o.pos, o.waitStage, o.kind = pos, cn.WaitStage, vkTimed
		o.doneCycle = e.cycle + int64(e.ck.Sched.Cfg.Lat.MinLock)
		f.addOut(o)
		return true, nil
	case ir.OpBarrier:
		gen := e.barrier.Arrive()
		o := e.newVLO()
		o.pos, o.waitStage, o.kind, o.barrierGen = pos, cn.WaitStage, vkBarrier, gen
		if e.barrier.Generation() > gen {
			o.done = true
			// This arrival released the barrier: wake the frames of the
			// other threads sleeping on their vkBarrier VLOs.
			e.wakeAllThreads()
		} else {
			// Barrier waits surface as Spinning (the thread polls the
			// hardware semaphore block until the generation advances).
			e.prof.SetState(e.cycle, t.id, profile.StateSpinning)
		}
		f.addOut(o)
		return true, nil
	case ir.OpLoopOp:
		return e.issueLoop(t, f, cn, pos)
	}
	return false, fmt.Errorf("sim: cannot issue op %s", cn.Op)
}

// completeSkipped finalizes a predicated-off VLO: loops forward their
// initial carries to the loop outputs; loads leave a zero value.
func (e *engine) completeSkipped(f *frame, cn *hw.CNode, pos int32) {
	if cn.Op == ir.OpLoopOp {
		sub := e.ck.Graphs[cn.SubGraph]
		for _, out := range cn.Outs {
			init := cn.Args[sub.NumLiveIn+int(out.Carry)]
			copyVal(&f.vals[out.Pos], &f.vals[init])
		}
	}
}

// issueLoop suspends the parent token and pushes a child frame.
func (e *engine) issueLoop(t *thread, f *frame, cn *hw.CNode, pos int32) (bool, error) {
	o := e.newVLO()
	o.pos, o.waitStage, o.kind = pos, cn.WaitStage, vkChild
	f.addOut(o)

	child := e.frameFor(t, int(cn.SubGraph))
	child.parent = f
	child.loopVLO = o
	child.loopPos = pos
	sub := child.cg
	for i := 0; i < sub.NumLiveIn; i++ {
		if lp := sub.LiveInPos[i]; lp >= 0 {
			copyVal(&child.vals[lp], &f.vals[cn.Args[i]])
		}
	}
	for i := 0; i < sub.NumCarry; i++ {
		copyVal(&child.carries[i], &f.vals[cn.Args[sub.NumLiveIn+i]])
	}
	e.activate(t, child)
	return true, nil
}

// finishGraph completes a loop (or the top region): final carries flow to
// the parent's LoopOut slots, the parent's VLO completes and the frame is
// retired. Finishing the top region ends the thread.
func (e *engine) finishGraph(t *thread, f *frame) {
	if f.pendStalls != 0 {
		// The frame leaves the active list now; flush its owed stalls into
		// the still-open window.
		e.chargeStalls(t, f)
	}
	e.freeOcc(t, f)
	e.loopExecs[f.gi]++
	e.loopSpans[f.gi] += e.cycle - f.enterCycle
	f.stage = -1
	f.finished = true
	t.ready.del(int(f.ai))
	if f.parent == nil {
		t.done = true
		e.nDone++
		if t.pendInt != 0 || t.pendFp != 0 {
			// The thread is never walked again; flush its compute
			// counts into the still-open window.
			e.prof.AddCompute(t.id, t.pendInt, t.pendFp)
			t.pendInt, t.pendFp = 0, 0
		}
		t.endCycle = e.cycle
		e.prof.SetState(e.cycle, t.id, profile.StateIdle)
		return
	}
	parent := f.parent
	cn := &parent.cg.Nodes[f.loopPos]
	for _, out := range cn.Outs {
		copyVal(&parent.vals[out.Pos], &f.carries[out.Carry])
	}
	f.loopVLO.done = true
	f.loopVLO.doneCycle = e.cycle
	// The parent may be asleep waiting on this child.
	e.wakeFrame(parent)
}

// issueMem issues a load or store against BRAM or external DRAM.
func (e *engine) issueMem(t *thread, f *frame, cn *hw.CNode, pos int32) (bool, error) {
	idx := f.vals[cn.A0].I
	words := int(cn.Width) * int(cn.ElemWords)
	if cn.Space == ir.SpaceLocal {
		bram := e.brams[t.id][cn.LocalID]
		addr := idx * int64(cn.ElemWords)
		if cn.Op == ir.OpStore {
			data := e.scratch(words)
			e.encodeWords(f, cn.A1, data)
			done, _, err := bram.Access(e.cycle, true, addr, words, data)
			if err != nil {
				return false, fmt.Errorf("sim: thread %d local store: %w", t.id, err)
			}
			o := e.newVLO()
			o.pos, o.waitStage, o.kind, o.doneCycle = pos, cn.WaitStage, vkTimed, done
			f.addOut(o)
			return true, nil
		}
		buf := e.scratch(words)
		done, err := bram.ReadInto(e.cycle, addr, buf)
		if err != nil {
			return false, fmt.Errorf("sim: thread %d local load: %w", t.id, err)
		}
		e.storeLoadedValue(f, cn, pos, buf)
		o := e.newVLO()
		o.pos, o.waitStage, o.kind, o.doneCycle = pos, cn.WaitStage, vkTimed, done
		f.addOut(o)
		return true, nil
	}

	// External memory: one read port and one write port per thread. The
	// per-thread request slots are recycled (see the thread fields): the
	// extRead/extWrite gates guarantee the previous request has completed
	// (its callback ran) before the slot is repointed.
	if cn.Op == ir.OpStore {
		if t.extWrite {
			return false, nil
		}
		addr := e.globalBase[cn.GlobalIdx] + idx*int64(cn.ElemWords)
		data := e.getBuf(words)
		e.encodeWords(f, cn.A1, data)
		o := e.newVLO()
		o.pos, o.waitStage, o.kind = pos, cn.WaitStage, vkAsync
		t.wrVLO, t.wrFrame, t.wrData = o, f, data
		req := &t.writeReq
		req.Thread, req.Write, req.WordAddr, req.Words, req.Data = t.id, true, addr, words, data
		if req.OnComplete == nil {
			req.OnComplete = func(c int64, _ []uint32) {
				t.wrVLO.done = true
				t.wrVLO.doneCycle = c
				t.extWrite = false
				// The DRAM copied the payload at accept time.
				e.putBuf(t.wrData)
				e.wakePort(t, t.wrFrame)
			}
		}
		if err := e.dram.Submit(req); err != nil {
			return false, fmt.Errorf("sim: thread %d store: %w", t.id, err)
		}
		t.extWrite = true
		f.addOut(o)
		return true, nil
	}
	if t.extRead {
		return false, nil
	}
	addr := e.globalBase[cn.GlobalIdx] + idx*int64(cn.ElemWords)
	o := e.newVLO()
	o.pos, o.waitStage, o.kind = pos, cn.WaitStage, vkAsync
	t.rdVLO, t.rdFrame, t.rdCN, t.rdPos = o, f, cn, pos
	req := &t.readReq
	req.Thread, req.WordAddr, req.Words = t.id, addr, words
	if req.OnComplete == nil {
		req.OnComplete = func(c int64, value []uint32) {
			e.storeLoadedValue(t.rdFrame, t.rdCN, t.rdPos, value)
			t.rdVLO.done = true
			t.rdVLO.doneCycle = c
			t.extRead = false
			e.wakePort(t, t.rdFrame)
		}
	}
	if err := e.dram.Submit(req); err != nil {
		return false, fmt.Errorf("sim: thread %d load: %w", t.id, err)
	}
	t.extRead = true
	f.addOut(o)
	return true, nil
}

// storeLoadedValue decodes raw words into the node's value slot. data is
// only valid for the duration of the call (DRAM and BRAM buffers are
// recycled), so the decode copies.
func (e *engine) storeLoadedValue(f *frame, cn *hw.CNode, pos int32, data []uint32) {
	dst := &f.vals[pos]
	switch cn.Kind {
	case ir.KindVec:
		v := dst.V
		if cap(v) < len(data) {
			v = make([]float32, len(data))
		}
		v = v[:len(data)]
		for i, w := range data {
			v[i] = math.Float32frombits(w)
		}
		dst.V = v
	case ir.KindFloat:
		dst.F = math.Float32frombits(data[0])
	default:
		dst.I = int64(int32(data[0]))
	}
}

// encodeWords encodes a node value into dst (len = the store's word count)
// for a store's payload.
func (e *engine) encodeWords(f *frame, argPos int32, dst []uint32) {
	v := &f.vals[argPos]
	src := &f.cg.Nodes[argPos]
	switch src.Kind {
	case ir.KindVec:
		for i := range dst {
			dst[i] = math.Float32bits(v.V[i])
		}
	case ir.KindFloat:
		dst[0] = math.Float32bits(v.F)
	default:
		dst[0] = uint32(int32(v.I))
	}
}
