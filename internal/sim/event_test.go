package sim

// White-box tests for the event-driven scheduler: nextEventCycle decides
// how far the engine may fast-forward, sleepFrame decides which wake
// sources a blocked frame registers, and the ready and due sets decide who
// steps in which cycle. Getting these edges wrong silently breaks
// cycle-exactness, so each is pinned here.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/hwsem"
	"paravis/internal/ir"
	"paravis/internal/mem"
)

func bareEngine(cycle int64) *engine {
	return &engine{
		dram:    mem.NewDRAM(mem.DRAMConfig{LatencyCycles: 5, Words: 1024}),
		barrier: hwsem.NewBarrier(1),
		cycle:   cycle,
	}
}

// spinGraph registers a loop graph of the given depth that issues nothing
// and never exits: a token in it moves one stage per step, for ever. static
// lists the stages that hold at most one token.
func spinGraph(e *engine, depth int, static ...int) *hw.CGraph {
	cg := &hw.CGraph{
		ID: len(e.occ), Depth: depth, CondIdx: 0, CheckAt: -2,
		Stages: make([]hw.CStage, depth), Static: make([]bool, depth),
	}
	for _, s := range static {
		cg.Static[s] = true
	}
	cg.CoastTo = make([]int32, depth)
	for s := range cg.CoastTo {
		cg.CoastTo[s] = int32(s) // no coasting: these tests step every stage
	}
	occ := make([]int32, depth)
	for s := range occ {
		occ[s] = -1
	}
	e.occ = append(e.occ, occ)
	e.occW = append(e.occW, make([][]*frame, depth))
	e.coastW = append(e.coastW, make([][]*frame, depth))
	e.loopIters = append(e.loopIters, 0)
	e.loopExecs = append(e.loopExecs, 0)
	e.loopSpans = append(e.loopSpans, 0)
	e.loopStalls = append(e.loopStalls, 0)
	return cg
}

// bareThread appends a started thread with one ready frame per graph, each
// token at stage 0.
func bareThread(e *engine, graphs ...*hw.CGraph) *thread {
	t := &thread{id: len(e.threads)}
	e.threads = append(e.threads, t)
	e.nextStart = len(e.threads)
	for _, cg := range graphs {
		e.activate(t, &frame{
			cg: cg, occ: e.occ[cg.ID], ow: e.occW[cg.ID], cw: e.coastW[cg.ID], gi: int32(cg.ID), t: t,
			sleepFrom: -1, minWait: math.MaxInt32, vals: make([]hw.Value, 1),
		})
	}
	return t
}

// waitOn blocks the frame's next stage on an undone VLO of the given kind.
func waitOn(f *frame, kind vloKind, doneCycle int64) *outVLO {
	o := &outVLO{kind: kind, waitStage: f.stage + 1, doneCycle: doneCycle}
	f.addOut(o)
	return o
}

func has(s ordSet, i int) bool { return s.next(i) == i }

// members lists an ordSet in walk order.
func members(s ordSet) []int {
	out := []int{}
	for i := s.next(0); i >= 0; i = s.next(i + 1) {
		out = append(out, i)
	}
	return out
}

func wantSet(t *testing.T, what string, s ordSet, want ...int) {
	t.Helper()
	if want == nil {
		want = []int{}
	}
	if got := members(s); !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestNextEventCycleIdleMeansDeadlock(t *testing.T) {
	e := bareEngine(7)
	if got := e.nextEventCycle(); got != -1 {
		t.Errorf("idle engine: nextEventCycle = %d, want -1 (deadlock)", got)
	}
}

func TestNextEventCycleExternalWake(t *testing.T) {
	e := bareEngine(7)
	e.woken = true
	if got := e.nextEventCycle(); got != 8 {
		t.Errorf("woken engine: nextEventCycle = %d, want cycle+1 = 8", got)
	}
}

func TestNextEventCycleProfileBoundaryCap(t *testing.T) {
	// With a frame asleep on a busy memory port, jumps must not skip a
	// sample-window boundary: the port wake lands inside the skipped span,
	// so boundary settlement has to happen at the same cycles as under
	// per-cycle stepping.
	e := bareEngine(7)
	e.pushWake(100, nil)
	e.profNext = 40
	e.nPortSleep = 1
	if got := e.nextEventCycle(); got != 40 {
		t.Errorf("port sleeper, wake 100, boundary 40: nextEventCycle = %d, want 40", got)
	}
	// With no port sleepers every wake is timed, so the jump may overshoot
	// the boundary — the run loop settles the crossed window on landing.
	e2 := bareEngine(7)
	e2.pushWake(100, nil)
	e2.profNext = 40
	if got := e2.nextEventCycle(); got != 100 {
		t.Errorf("no port sleeper, wake 100, boundary 40: nextEventCycle = %d, want 100", got)
	}
	// The boundary alone is not an event: with nothing pending the engine
	// must still report deadlock.
	e3 := bareEngine(7)
	e3.profNext = 40
	e3.nPortSleep = 1
	if got := e3.nextEventCycle(); got != -1 {
		t.Errorf("boundary only: nextEventCycle = %d, want -1 (deadlock)", got)
	}
}

func TestNextEventCycleWakeHeapSkipsStaleEntries(t *testing.T) {
	// Entries at or before the current cycle are consumed by fireTimedWakes
	// at the start of the cycle; one whose frame was woken early is dropped
	// there without readying anything, and the jump target is the earliest
	// entry still in the future.
	e := bareEngine(0)
	th := bareThread(e, spinGraph(e, 2), spinGraph(e, 2), spinGraph(e, 2))
	var vlos []*outVLO
	for i, at := range []int64{20, 15, 5} {
		vlos = append(vlos, waitOn(th.active[i], vkTimed, at))
		e.sleepFrame(th.active[i], true)
	}
	// Frame 2 is woken early and sleeps again on a later completion: its
	// entry for cycle 5 is stale from here on.
	e.cycle = 3
	e.wakeFrame(th.active[2])
	vlos[2].doneCycle = 30
	e.sleepFrame(th.active[2], true)
	clear(e.due)
	e.cycle, e.woken = 10, false
	e.fireTimedWakes()
	if got := e.nextEventCycle(); got != 15 {
		t.Errorf("nextEventCycle = %d, want earliest future wake 15", got)
	}
	if len(e.wakes) != 3 {
		t.Errorf("stale wake not popped: heap %v", e.wakes)
	}
	wantSet(t, "ready after a stale entry fired", th.ready)
	wantSet(t, "due after a stale entry fired", e.due)
}

func TestNextEventCycleSeesDRAM(t *testing.T) {
	e := bareEngine(10)
	if err := e.dram.Submit(&mem.Request{Thread: 0, WordAddr: 0, Words: 1}); err != nil {
		t.Fatal(err)
	}
	// A queued request is accepted next cycle.
	if got := e.nextEventCycle(); got != 11 {
		t.Errorf("queued DRAM request: nextEventCycle = %d, want 11", got)
	}
}

func TestNextEventCycleSeesNextThreadStart(t *testing.T) {
	e := bareEngine(10)
	e.threads = []*thread{{startAt: 42}}
	if got := e.nextEventCycle(); got != 42 {
		t.Errorf("pending thread start: nextEventCycle = %d, want 42", got)
	}
}

func TestSleepFrameCompletedVLOWakesNextCycle(t *testing.T) {
	// A completed-but-unretired VLO means the frame can make progress on
	// its very next step (retiring it), so the frame must wake at cycle+1
	// — sleeping until an external event would deadlock.
	e := bareEngine(30)
	f := bareThread(e, spinGraph(e, 2)).active[0]
	f.outstanding = []*outVLO{{done: true}}
	e.sleepFrame(f, true)
	if f.sleepUntil != 31 {
		t.Errorf("sleepUntil = %d, want cycle+1 = 31", f.sleepUntil)
	}
	if len(e.wakes) != 1 || e.wakes[0] != (timedWake{31, f}) {
		t.Errorf("wake heap %v, want [{31 f}]", e.wakes)
	}
}

func TestSleepFrameTimedVLOWakesAtCompletion(t *testing.T) {
	e := bareEngine(30)
	f := bareThread(e, spinGraph(e, 2)).active[0]
	f.outstanding = []*outVLO{{kind: vkTimed, doneCycle: 95}}
	e.sleepFrame(f, true)
	if f.sleepUntil != 95 {
		t.Errorf("sleepUntil = %d, want doneCycle 95", f.sleepUntil)
	}
}

func TestSleepFrameLockRetry(t *testing.T) {
	e := bareEngine(30)
	f := bareThread(e, spinGraph(e, 2)).active[0]
	f.pendings = []pending{{kind: pendLock, retryAt: 46}}
	e.sleepFrame(f, false)
	if f.sleepUntil != 46 {
		t.Errorf("sleepUntil = %d, want retryAt 46", f.sleepUntil)
	}
}

func TestSleepFramePortPendingSleepsUntilExternalWake(t *testing.T) {
	// A frame blocked on a busy memory port has no timed wake: the DRAM
	// completion that frees the port wakes it (wakePort), and the in-flight
	// transaction keeps the DRAM in the engine's event horizon, so no
	// wake-heap entry is needed.
	e := bareEngine(30)
	th := bareThread(e, spinGraph(e, 2))
	f := th.active[0]
	f.pendings = []pending{{kind: pendPort, retryAt: 31}}
	e.sleepFrame(f, true)
	if f.sleepUntil != math.MaxInt64 {
		t.Errorf("sleepUntil = %d, want MaxInt64 (external wake only)", f.sleepUntil)
	}
	if len(e.wakes) != 0 {
		t.Errorf("wake heap %v, want empty", e.wakes)
	}
	wantSet(t, "ready set of the sleeper's thread", th.ready)
	// Port sleepers must register in nPortSleep so nextEventCycle knows to
	// cap jumps at the next sample-window boundary.
	if !f.portSleep || e.nPortSleep != 1 {
		t.Errorf("portSleep = %v, nPortSleep = %d, want true/1", f.portSleep, e.nPortSleep)
	}
}

func TestWakeHeapOrdering(t *testing.T) {
	e := bareEngine(0)
	for _, c := range []int64{9, 3, 7, 1, 8, 2} {
		e.pushWake(c, nil)
	}
	want := []int64{1, 2, 3, 7, 8, 9}
	for _, w := range want {
		if got := e.popWake().at; got != w {
			t.Fatalf("popped %d, want %d (heap %v)", got, w, e.wakes)
		}
	}
	if len(e.wakes) != 0 {
		t.Errorf("heap not drained: %v", e.wakes)
	}
}

func TestOrdSetWalk(t *testing.T) {
	var s ordSet
	for _, i := range []int{130, 0, 63, 64, 95} {
		s.add(i)
	}
	wantSet(t, "set", s, 0, 63, 64, 95, 130)
	// A member added ahead of the walk is reached by it, one added behind
	// waits for the next walk.
	var seen []int
	for i := s.next(0); i >= 0; i = s.next(i + 1) {
		seen = append(seen, i)
		if i == 64 {
			s.add(7)
			s.add(96)
		}
	}
	if want := []int{0, 63, 64, 95, 96, 130}; !reflect.DeepEqual(seen, want) {
		t.Errorf("walk saw %v, want %v", seen, want)
	}
	s.del(63)
	s.del(130)
	wantSet(t, "set after del", s, 0, 7, 64, 95, 96)
	if s.empty() || !has(s, 95) || has(s, 63) || has(s, 4000) {
		t.Errorf("empty/has wrong on %v", members(s))
	}
	clear(s)
	if !s.empty() || s.next(0) != -1 {
		t.Errorf("cleared set still has %v", members(s))
	}
}

// TestWakeOrderAcrossThreads pins the same-cycle rule between threads with
// a freed stage slot: the holder is thread 1, threads 0 and 2 sleep on the
// slot. When thread 1 moves on, thread 2 (later in the walk) steps in that
// very cycle and takes the slot; thread 0 steps the cycle after and finds
// it taken.
func TestWakeOrderAcrossThreads(t *testing.T) {
	e := bareEngine(10)
	g := spinGraph(e, 3, 1)
	t0, t1, t2 := bareThread(e, g), bareThread(e, g), bareThread(e, g)
	f0, f1, f2 := t0.active[0], t1.active[0], t2.active[0]
	// Thread 1's token holds the static stage 1 until a timed VLO lets it
	// into stage 2 at cycle 11.
	f1.stage, f1.holdsOcc, f1.occ[1] = 1, true, 1
	waitOn(f1, vkTimed, 11)

	if e.stepDue() {
		t.Fatal("cycle 10: every frame is blocked, yet progress was reported")
	}
	for i, th := range e.threads {
		wantSet(t, "cycle 10: ready set of thread "+string(rune('0'+i)), th.ready)
	}
	wantSet(t, "cycle 10: due", e.due)
	if f0.sleepUntil != math.MaxInt64 || f2.sleepUntil != math.MaxInt64 {
		t.Errorf("slot waiters sleep until %d and %d, want an external wake only", f0.sleepUntil, f2.sleepUntil)
	}
	if len(e.wakes) != 1 || e.wakes[0] != (timedWake{11, f1}) {
		t.Fatalf("wake heap %v, want the holder's entry for cycle 11", e.wakes)
	}

	e.cycle = 11
	e.fireTimedWakes()
	wantSet(t, "cycle 11: due before the walk", e.due, 1)
	steps := e.steps
	if !e.stepDue() {
		t.Fatal("cycle 11: no progress")
	}
	if e.steps-steps != 2 {
		t.Errorf("cycle 11: %d steps, want 2 (the holder, then thread 2)", e.steps-steps)
	}
	if f1.stage != 2 || f2.stage != 1 || f0.stage != 0 {
		t.Errorf("cycle 11: stages t0=%d t1=%d t2=%d, want 0 2 1", f0.stage, f1.stage, f2.stage)
	}
	wantSet(t, "cycle 11: due after the walk", e.due, 0, 1, 2)
	wantSet(t, "cycle 11: thread 0 ready set", t0.ready, 0)

	// Cycle 12: thread 0 steps first and blocks on thread 2's token; thread
	// 2 then moves on and wakes it once more, again for the next cycle.
	e.cycle = 12
	failed := e.failedSteps
	e.stepDue()
	if f0.stage != 0 || f0.sleepFrom != 12 || e.failedSteps-failed != 1 {
		t.Errorf("cycle 12: thread 0 stage %d sleepFrom %d, %d failed steps; want it re-blocked at 12",
			f0.stage, f0.sleepFrom, e.failedSteps-failed)
	}
	if f2.stage != 2 || f0.sleepUntil != 0 {
		t.Errorf("cycle 12: thread 2 stage %d, thread 0 sleepUntil %d; want the slot freed and thread 0 woken", f2.stage, f0.sleepUntil)
	}
	wantSet(t, "cycle 12: due", e.due, 0, 1, 2)
}

// TestWakeOrderWithinThread pins the same rule between the frames of one
// thread, with the one mid-walk wake that can reach a later sibling: a
// barrier release. Frame 1 releases the barrier; frame 2 is re-examined in
// that cycle (and sleeps again, its load is still out), frame 0 the next.
func TestWakeOrderWithinThread(t *testing.T) {
	e := bareEngine(20)
	g := spinGraph(e, 3)
	gb := spinGraph(e, 3)
	gb.Nodes = []hw.CNode{{Op: ir.OpBarrier, Pred: -1, WaitStage: 2}}
	gb.Stages[1].Issue = []int32{0}
	th := bareThread(e, g, gb, g)
	f0, f2 := th.active[0], th.active[2]
	waitOn(f0, vkAsync, 0)
	waitOn(f2, vkAsync, 0)
	e.cycle = 19
	e.sleepFrame(f0, true)
	e.sleepFrame(f2, true)
	e.cycle = 20
	wantSet(t, "ready before the release", th.ready, 1)

	if !e.stepDue() {
		t.Fatal("the barrier frame made no progress")
	}
	if e.steps != 2 || e.failedSteps != 1 {
		t.Errorf("steps %d failed %d, want 2 and 1 (frame 1, then frame 2 re-blocking)", e.steps, e.failedSteps)
	}
	if f2.sleepFrom != 20 || f2.sleepUntil != math.MaxInt64 {
		t.Errorf("frame 2 sleepFrom %d sleepUntil %d, want re-slept at 20", f2.sleepFrom, f2.sleepUntil)
	}
	if f0.sleepFrom != 19 || f0.sleepUntil != 0 {
		t.Errorf("frame 0 sleepFrom %d sleepUntil %d, want woken but not yet stepped", f0.sleepFrom, f0.sleepUntil)
	}
	wantSet(t, "ready after the release", th.ready, 0, 1)
	wantSet(t, "due after the release", e.due, 0)
	if !e.woken {
		t.Error("a barrier release must forbid skipping the next cycle")
	}

	e.cycle = 21
	e.stepDue()
	if e.steps != 4 || f0.sleepFrom != 21 {
		t.Errorf("steps %d, frame 0 sleepFrom %d: want frames 0 and 1 stepped at 21", e.steps, f0.sleepFrom)
	}
}

// TestExternalSleeperReentersThroughEveryWake: a frame with no timed wake
// source is absent from the ready set, each wake path puts back exactly the
// frames it is for, and a read completion no longer wakes bystanders.
func TestExternalSleeperReentersThroughEveryWake(t *testing.T) {
	setup := func() (*engine, *thread) {
		e := bareEngine(40)
		g := spinGraph(e, 3)
		th := bareThread(e, g, g, g)
		waitOn(th.active[0], vkChild, 0) // parent of a running loop
		waitOn(th.active[1], vkAsync, 0) // its load is in flight
		th.active[2].pendings = []pending{{kind: pendPort, retryAt: 41}}
		e.sleepFrame(th.active[0], false)
		e.sleepFrame(th.active[1], true)
		e.sleepFrame(th.active[2], true)
		wantSet(t, "ready with every frame asleep", th.ready)
		if len(e.wakes) != 0 {
			t.Fatalf("external sleepers left heap entries %v", e.wakes)
		}
		e.cycle = 45
		return e, th
	}
	for _, c := range []struct {
		name string
		wake func(e *engine, th *thread)
		want []int
	}{
		{"wakeFrame", func(e *engine, th *thread) { e.wakeFrame(th.active[0]) }, []int{0}},
		{"wakePort", func(e *engine, th *thread) { e.wakePort(th, th.active[1]) }, []int{1, 2}},
		{"wakeThread", func(e *engine, th *thread) { e.wakeThread(th) }, []int{0, 1, 2}},
		{"barrier release", func(e *engine, th *thread) { e.wakeAllThreads() }, []int{0, 1, 2}},
	} {
		e, th := setup()
		c.wake(e, th)
		wantSet(t, c.name+": ready", th.ready, c.want...)
		wantSet(t, c.name+": due", e.due, 0)
		if !e.woken {
			t.Errorf("%s did not set woken", c.name)
		}
		for i, f := range th.active {
			if (f.sleepUntil == 0) != has(th.ready, i) {
				t.Errorf("%s: frame %d sleepUntil %d but ready = %v", c.name, i, f.sleepUntil, has(th.ready, i))
			}
		}
	}
}

// TestStaleTimedWakeIsInert: a frame woken before its timed wake leaves a
// heap entry behind; when that entry comes due it causes no step and
// changes nothing, whether the frame is ready, asleep until a later cycle
// or asleep on an external event by then.
func TestStaleTimedWakeIsInert(t *testing.T) {
	for _, c := range []struct {
		name  string
		state int64 // the frame's sleepUntil when the stale entry fires
	}{{"ready", 0}, {"timed", 120}, {"external", math.MaxInt64}} {
		e := bareEngine(50)
		th := bareThread(e, spinGraph(e, 3))
		f := th.active[0]
		o := waitOn(f, vkTimed, 95)
		e.sleepFrame(f, true)
		e.cycle = 60
		e.wakeFrame(f) // e.g. a slot it also waited on was freed
		if c.state != 0 {
			o.doneCycle = c.state
			e.sleepFrame(f, true)
		}
		clear(e.due)
		e.cycle, e.woken = 95, false
		before := *f
		heap := len(e.wakes)
		e.fireTimedWakes()
		if !reflect.DeepEqual(*f, before) {
			t.Errorf("%s: the stale entry changed the frame: %+v -> %+v", c.name, before, *f)
		}
		wantSet(t, c.name+": due", e.due)
		if e.steps != 0 || e.woken || len(e.wakes) != heap-1 {
			t.Errorf("%s: steps %d woken %v heap %d -> %d, want one entry dropped and nothing else",
				c.name, e.steps, e.woken, heap, len(e.wakes))
		}
	}
}

// TestCompactionKeepsSetMembership: when a finished frame is compacted out
// of the active list the survivors are renumbered, and each stays in or out
// of the ready set as it was.
func TestCompactionKeepsSetMembership(t *testing.T) {
	e := bareEngine(70)
	g := spinGraph(e, 3)
	gp := spinGraph(e, 3)
	gp.Nodes = []hw.CNode{{Op: ir.OpLoopOp}}
	gc := spinGraph(e, 3) // exits from the end of stage 0: its condition is 0
	gc.CheckAt = 0
	th := bareThread(e, gp, gc, g, g)
	parent, child, runner, sleeper := th.active[0], th.active[1], th.active[2], th.active[3]
	child.parent, child.loopPos = parent, 0
	child.loopVLO = waitOn(parent, vkChild, 0)
	waitOn(sleeper, vkAsync, 0)
	e.sleepFrame(parent, false)
	e.sleepFrame(sleeper, true)
	wantSet(t, "ready before", th.ready, 1, 2)

	e.stepDue()
	if !child.finished || len(th.active) != 3 || th.active[0] != parent || th.active[1] != runner || th.active[2] != sleeper {
		t.Fatalf("active after the child finished: %v", th.active)
	}
	for i, f := range th.active {
		if int(f.ai) != i {
			t.Errorf("frame %d carries index %d", i, f.ai)
		}
	}
	// The parent was woken by the child (it steps next cycle), the runner
	// progressed and stays ready, the sleeper is still out.
	wantSet(t, "ready after", th.ready, 0, 1)
	wantSet(t, "due after", e.due, 0)
	e.wakeFrame(sleeper)
	wantSet(t, "ready after waking the renumbered sleeper", th.ready, 0, 1, 2)
	e.cycle = 71
	steps := e.steps
	e.stepDue()
	if e.steps-steps != 3 || parent.stage != 1 {
		t.Errorf("cycle 71: %d steps, parent at stage %d; want 3 steps and the parent past its loop", e.steps-steps, parent.stage)
	}
}

// TestSchedulerCountersOnSeeds runs the six seed workloads at DIM=16 (pi at
// 6400 steps) and checks the scheduler's own work: every frame a walk
// examines must be one it steps (a polling engine examined 3.7 frames per
// step here), no thread is visited without a frame to step, and the five
// counters are pinned so that a change in how much the scheduler does
// shows up as a diff, not as a timing. FailedSteps and Jumps are the
// stepping engine's (coasting never alters a blocked step or a jump);
// Steps, FrameVisits and ThreadVisits are what coasting leaves, and pi,
// nearly all static runs, must take at most 10,000 steps (64,680 when
// every stage is stepped). A frame whose next step must fail sleeps on the
// step that put it there (anticipate), so failed steps are few where the
// waits are DRAM, child loops or stuck tokens ahead: at most 4 % of steps
// on the lock-serialised and narrow-access GEMMs and pi. The BRAM-resident
// GEMMs wait mostly on timed VLOs, which anticipate leaves to stepping.
func TestSchedulerCountersOnSeeds(t *testing.T) {
	want := map[string][5]int64{ // Steps, FailedSteps, FrameVisits, ThreadVisits, Jumps
		"gemm-naive":                 {64873, 2448, 64873, 64737, 5019},
		"gemm-no-critical-sections":  {34099, 283, 34099, 34075, 5853},
		"gemm-partial-vectorization": {22715, 280, 22715, 22691, 5019},
		"gemm-blocked":               {25425, 1435, 25425, 24171, 232},
		"gemm-double-buffering":      {25426, 1364, 25426, 23741, 106},
		"pi":                         {7635, 48, 7635, 7635, 47},
	}
	fewFailed := map[string]bool{
		"gemm-naive": true, "gemm-no-critical-sections": true, "gemm-partial-vectorization": true, "pi": true,
	}
	// Steps and FailedSteps of the BRAM-resident GEMMs before anticipate:
	// it must never make them do more.
	ceiling := map[string][2]int64{"gemm-blocked": {25770, 1780}, "gemm-double-buffering": {25700, 1638}}
	for _, u := range seedUnits(t, 16, 6400) {
		r, err := Run(context.Background(), u.ck, u.args(), DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		got := [5]int64{r.Steps, r.FailedSteps, r.FrameVisits, r.ThreadVisits, r.Jumps}
		if got != want[u.name] {
			t.Errorf("%s: steps, failed, frame visits, thread visits, jumps = %v, pinned %v", u.name, got, want[u.name])
		}
		if idle := r.FrameVisits - r.Steps; idle*100 > r.FrameVisits {
			t.Errorf("%s: %d of %d frame visits stepped nothing (more than 1 %%)", u.name, idle, r.FrameVisits)
		}
		if r.ThreadVisits > r.FrameVisits {
			t.Errorf("%s: %d thread visits for %d frame visits", u.name, r.ThreadVisits, r.FrameVisits)
		}
		if fewFailed[u.name] && r.FailedSteps*25 > r.Steps {
			t.Errorf("%s: %d of %d steps failed (more than 4 %%)", u.name, r.FailedSteps, r.Steps)
		}
		if c, ok := ceiling[u.name]; ok && (r.Steps > c[0] || r.FailedSteps > c[1]) {
			t.Errorf("%s: %d steps, %d failed, above the %d and %d of stepping blocked frames", u.name, r.Steps, r.FailedSteps, c[0], c[1])
		}
		if u.name == "pi" && r.Steps > 10_000 {
			t.Errorf("pi: %d steps, want at most 10,000", r.Steps)
		}
	}
}
