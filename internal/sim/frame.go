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
		for _, o := range f.outstanding {
			if !o.done {
				switch o.kind {
				case vkTimed:
					if o.doneCycle <= e.cycle {
						o.done = true
						progress = true
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
		ok, stall, occ := true, false, false
		if len(f.outstanding) > 0 && f.minWait <= 0 {
			ok, stall, occ = e.canEnterSlow(t, f, 0)
		} else if f.cg.Static[0] {
			if o := f.occ[0]; o >= 0 && o != int32(t.id) {
				ok, stall, occ = false, true, true
			}
		}
		if !ok {
			e.blockFrame(t, f, stall, !occ)
			if occ {
				e.waitOcc(f, 0)
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

		ok, stall, occ := true, false, false
		if len(f.outstanding) > 0 && s >= f.minWait {
			ok, stall, occ = e.canEnterSlow(t, f, s)
		} else if f.cg.Static[s] {
			if o := f.occ[s]; o >= 0 && o != int32(t.id) {
				ok, stall, occ = false, true, true
			}
		}
		if !ok {
			e.blockFrame(t, f, stall, !occ)
			if occ {
				e.waitOcc(f, s)
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
	return true
}

// addOut registers a newly issued VLO on its frame, folding its gate
// stage into the minWait cache.
func (f *frame) addOut(o *outVLO) {
	if o.waitStage < f.minWait {
		f.minWait = o.waitStage
	}
	f.outstanding = append(f.outstanding, o)
}

// blockFrame accounts a failed step: one stall if the block is stall-type,
// then sleep if the block can only clear through a timed or external wake.
// Occupancy blocks (canSleep=false) are slept separately by waitOcc, which
// also registers the thread for a freeOcc wake.
func (e *engine) blockFrame(t *thread, f *frame, stall, canSleep bool) {
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
func (e *engine) canEnterSlow(t *thread, f *frame, s int32) (ok, stall, occBlock bool) {
	blocked := false
	for _, o := range f.outstanding {
		if !o.done && o.waitStage <= s {
			blocked = true
			if o.kind != vkChild {
				return false, true, false
			}
		}
	}
	if blocked {
		return false, false, false
	}
	if f.cg.Static[s] {
		occ := f.occ[s]
		if occ >= 0 && occ != int32(t.id) {
			return false, true, true
		}
	}
	return true, false, false
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

// beginIteration loads carried-register values into their node slots.
func (e *engine) beginIteration(f *frame) {
	e.loopIters[f.gi]++
	for i, pos := range f.cg.CarryPos {
		if pos >= 0 {
			copyVal(&f.vals[pos], &f.carries[i])
		}
	}
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
}

// waitOcc registers the blocked frame as a waiter on a held slot so
// freeOcc can wake it; until then the frame sleeps (sleepFrame arms any
// earlier timed wake, e.g. a speculative load retiring mid-wait).
func (e *engine) waitOcc(f *frame, s int32) {
	e.sleepFrame(f, true)
	if f.sleepUntil == 0 {
		return // still ready: it steps again next cycle
	}
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
		e.prof.AddStallsSite(t.id, e.siteIDs[f.gi], f.pendStalls)
		f.pendStalls = 0
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
