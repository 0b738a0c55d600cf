// Package profile implements the hardware profiling unit the paper adds to
// the Nymble accelerator: per-thread state tracking (Idle / Running /
// Spinning / Critical, 2 bits each, a full-width record written whenever any
// thread changes state), and periodically sampled event counters (pipeline
// stalls, integer and floating-point operation counts, memory bytes read
// and written). Records accumulate in an on-chip buffer sized in 512-bit
// lines and are flushed to external memory when the buffer is nearly full;
// the flush traffic shares the memory system with the datapath, so the
// profiling perturbation is observable exactly as on the FPGA.
//
// The unit keeps only what the hardware writes: the per-thread state runs
// and event samples, plus lifetime per-thread totals. When profiling is off
// there is no unit: New returns nil, and every method of a nil *Unit does
// nothing (TotalsFor reads zeros).
package profile

import (
	"fmt"
	"math"
)

// ThreadState is the paper's 2-bit thread state encoding: 00 idle,
// 01 running, 10 critical, 11 spinning.
type ThreadState uint8

// Thread states.
const (
	StateIdle     ThreadState = 0
	StateRunning  ThreadState = 1
	StateCritical ThreadState = 2
	StateSpinning ThreadState = 3
)

func (s ThreadState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateRunning:
		return "Running"
	case StateCritical:
		return "Critical"
	case StateSpinning:
		return "Spinning"
	}
	return fmt.Sprintf("ThreadState(%d)", uint8(s))
}

// Config configures the profiling unit.
type Config struct {
	// Enabled turns the whole unit on; without it New returns no unit, so
	// nothing is recorded and no flush traffic is generated (the "without
	// profiling" baseline).
	Enabled bool
	// SamplePeriod is the event sampling period in cycles ("this period is
	// user-adjustable"). Larger periods coarsen the trace but shrink it.
	SamplePeriod int64
	// StateBufferLines / EventBufferLines size the on-chip buffers in
	// 512-bit lines.
	StateBufferLines int
	EventBufferLines int
}

// DefaultConfig returns the configuration used in the paper's case studies.
func DefaultConfig() Config {
	return Config{
		Enabled:          true,
		SamplePeriod:     1024,
		StateBufferLines: 64,
		EventBufferLines: 64,
	}
}

// WithDefaults returns c with every non-positive size replaced by
// DefaultConfig's. It is the unit's one zero-value rule: the unit itself
// and every static model of it read the configuration through it.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = d.SamplePeriod
	}
	if c.StateBufferLines <= 0 {
		c.StateBufferLines = d.StateBufferLines
	}
	if c.EventBufferLines <= 0 {
		c.EventBufferLines = d.EventBufferLines
	}
	return c
}

// The record format. Both buffers are built of LineBits-wide lines, the
// width of one flush beat.
const (
	LineBits = 512
	// StateBits is the width of one thread's ThreadState.
	StateBits = 2
	// EventCounters is the number of 32-bit event counters per thread:
	// stalls, integer ops, FP ops, bytes read, bytes written.
	EventCounters = 5
	// EventRecordBits is the width of one event sample record: the
	// counters, a 32-bit window stamp and an 8-bit thread id.
	EventRecordBits = EventCounters*32 + 32 + 8
)

// StateRecordBits is the width of one state record of nThreads threads:
// every thread's state plus a 32-bit cycle count.
func StateRecordBits(nThreads int) int { return StateBits*nThreads + 32 }

// StateRun is one run-length-encoded state interval [Begin, End) of a
// single thread. The unit stores each thread's history as a run stream,
// which is naturally sorted by construction and maps 1:1 onto Paraver
// state records without any global sort.
type StateRun struct {
	Begin, End int64
	State      ThreadState
}

// EventSample is one closed sampling window for one thread.
type EventSample struct {
	Start, End int64
	Thread     int
	Stalls     int64
	IntOps     int64
	FpOps      int64 // FP lane-operations (the FLOP count)
	ReadBytes  int64
	WriteBytes int64
}

// FlushFunc models the buffer flush to external memory: it is handed the
// flush size in bytes and the cycle it is issued.
type FlushFunc func(cycle int64, bytes int)

type threadCounters struct {
	stalls, intOps, fpOps, readBytes, writeBytes int64
}

// Unit is the profiling unit instance attached to one accelerator.
type Unit struct {
	cfg      Config
	nThreads int
	flush    FlushFunc

	// Per-thread state history, run-length encoded: runs[t] holds the
	// closed runs, openStart[t] the begin cycle of the run the thread is
	// currently in (its state is cur[t]). One append per actual state
	// change instead of a full-width snapshot per change keeps the stream
	// both smaller and pre-sorted for the trace writer.
	cur         []ThreadState
	runs        [][]StateRun
	openStart   []int64
	statesInBuf int

	counters    []threadCounters
	totals      []threadCounters
	samples     [][]EventSample // per-thread event streams, window-ordered
	eventsInBuf int
	windowStart int64

	// Stats.
	FlushedBytes int64
	Flushes      int64
}

// New creates a profiling unit for nThreads hardware threads, or returns
// nil when cfg is not Enabled. flush may be nil (no memory-traffic
// modeling).
func New(cfg Config, nThreads int, flush FlushFunc) *Unit {
	if !cfg.Enabled {
		return nil
	}
	return &Unit{
		cfg:       cfg.WithDefaults(),
		nThreads:  nThreads,
		flush:     flush,
		cur:       make([]ThreadState, nThreads),
		runs:      make([][]StateRun, nThreads),
		openStart: make([]int64, nThreads),
		counters:  make([]threadCounters, nThreads),
		totals:    make([]threadCounters, nThreads),
		samples:   make([][]EventSample, nThreads),
	}
}

// NumThreads returns the monitored thread count (0 for a nil unit).
func (u *Unit) NumThreads() int {
	if u == nil {
		return 0
	}
	return u.nThreads
}

// stateRecordsPerBuffer returns how many records fit the state buffer.
func (u *Unit) stateRecordsPerBuffer() int {
	per := (u.cfg.StateBufferLines * LineBits) / StateRecordBits(u.nThreads)
	if per < 1 {
		per = 1
	}
	return per
}

func (u *Unit) eventRecordsPerBuffer() int {
	per := (u.cfg.EventBufferLines * LineBits) / EventRecordBits
	if per < 1 {
		per = 1
	}
	return per
}

// SetState records a state change of one thread. Per the paper, the
// hardware writes a full-width record (the states of all threads) whenever
// any one changes; the buffer/flush accounting below models exactly that.
// The host-side storage, however, is a per-thread run-length stream: one
// closed run per actual transition of that thread.
func (u *Unit) SetState(cycle int64, thread int, st ThreadState) {
	if u == nil || u.cur[thread] == st {
		return
	}
	if cycle > u.openStart[thread] {
		u.closeRun(thread, cycle)
	}
	u.cur[thread] = st
	u.statesInBuf++
	if u.statesInBuf >= u.stateRecordsPerBuffer() {
		u.flushStates(cycle)
	}
}

// closeRun ends thread's open run at cycle, coalescing with the previous
// run when a same-cycle transition bounced through an intermediate state
// and landed back where it started.
func (u *Unit) closeRun(thread int, cycle int64) {
	rs := u.runs[thread]
	st := u.cur[thread]
	if n := len(rs); n > 0 && rs[n-1].State == st && rs[n-1].End == u.openStart[thread] {
		rs[n-1].End = cycle
	} else {
		rs = append(rs, StateRun{Begin: u.openStart[thread], End: cycle, State: st})
	}
	u.runs[thread] = rs
	u.openStart[thread] = cycle
}

// StateRuns returns thread's closed state runs, begin-sorted and coalesced.
// The slice is borrowed from the unit: it stays valid until the next
// SetState call for that thread. The run the thread is currently in is not
// included; close it with OpenStateRun.
func (u *Unit) StateRuns(thread int) []StateRun {
	if u == nil {
		return nil
	}
	return u.runs[thread]
}

// OpenStateRun returns thread's trailing open run closed at end, or false
// when it would be empty (end is not past the run's begin). Note the open
// run's state can equal the last closed run's state when a same-cycle
// transition bounced back; stream consumers coalesce on the fly.
func (u *Unit) OpenStateRun(thread int, end int64) (StateRun, bool) {
	if u == nil || end <= u.openStart[thread] {
		return StateRun{}, false
	}
	return StateRun{Begin: u.openStart[thread], End: end, State: u.cur[thread]}, true
}

// ThreadSamples returns thread's event-sample stream, ordered by window
// end. The slice is borrowed from the unit.
func (u *Unit) ThreadSamples(thread int) []EventSample {
	if u == nil {
		return nil
	}
	return u.samples[thread]
}

// AddStalls accumulates stall cycles for a thread.
func (u *Unit) AddStalls(thread int, n int64) {
	if u == nil {
		return
	}
	u.counters[thread].stalls += n
	u.totals[thread].stalls += n
}

// AddCompute accumulates arithmetic activity for a thread (integer ops and
// FP lane-operations).
func (u *Unit) AddCompute(thread int, intOps, fpOps int64) {
	if u == nil {
		return
	}
	u.counters[thread].intOps += intOps
	u.counters[thread].fpOps += fpOps
	u.totals[thread].intOps += intOps
	u.totals[thread].fpOps += fpOps
}

// AddMem accumulates memory traffic for a thread. Traffic from non-thread
// engines (thread < 0, e.g. this unit's own flushes) is ignored, as the
// hardware counters snoop only the compute-unit ports.
func (u *Unit) AddMem(thread int, bytes int, write bool) {
	if u == nil || thread < 0 {
		return
	}
	if write {
		u.counters[thread].writeBytes += int64(bytes)
		u.totals[thread].writeBytes += int64(bytes)
	} else {
		u.counters[thread].readBytes += int64(bytes)
		u.totals[thread].readBytes += int64(bytes)
	}
}

// Tick advances the unit to the given cycle, closing sample windows as
// crossed. Ticking every cycle is correct but wasteful: Tick only acts at
// window boundaries, so callers may batch and call it once per crossing of
// NextBoundary().
func (u *Unit) Tick(cycle int64) {
	if u == nil {
		return
	}
	for cycle >= u.windowStart+u.cfg.SamplePeriod {
		u.closeWindow(u.windowStart + u.cfg.SamplePeriod)
	}
}

// NextBoundary returns the first cycle at which Tick would close a sample
// window, or math.MaxInt64 for a nil unit. The value advances after each
// Tick that closes a window.
func (u *Unit) NextBoundary() int64 {
	if u == nil {
		return math.MaxInt64
	}
	return u.windowStart + u.cfg.SamplePeriod
}

func (u *Unit) closeWindow(end int64) {
	for t := 0; t < u.nThreads; t++ {
		c := &u.counters[t]
		if c.stalls == 0 && c.intOps == 0 && c.fpOps == 0 && c.readBytes == 0 && c.writeBytes == 0 {
			continue
		}
		u.samples[t] = append(u.samples[t], EventSample{
			Start: u.windowStart, End: end, Thread: t,
			Stalls: c.stalls, IntOps: c.intOps, FpOps: c.fpOps,
			ReadBytes: c.readBytes, WriteBytes: c.writeBytes,
		})
		*c = threadCounters{}
		u.eventsInBuf++
	}
	if u.eventsInBuf >= u.eventRecordsPerBuffer() {
		u.flushEvents(end)
	}
	u.windowStart = end
}

func (u *Unit) flushStates(cycle int64) {
	if u.statesInBuf == 0 {
		return
	}
	bits := u.statesInBuf * StateRecordBits(u.nThreads)
	lines := (bits + LineBits - 1) / LineBits
	u.emitFlush(cycle, lines*LineBits/8)
	u.statesInBuf = 0
}

func (u *Unit) flushEvents(cycle int64) {
	if u.eventsInBuf == 0 {
		return
	}
	bits := u.eventsInBuf * EventRecordBits
	lines := (bits + LineBits - 1) / LineBits
	u.emitFlush(cycle, lines*LineBits/8)
	u.eventsInBuf = 0
}

func (u *Unit) emitFlush(cycle int64, bytes int) {
	u.FlushedBytes += int64(bytes)
	u.Flushes++
	if u.flush != nil {
		u.flush(cycle, bytes)
	}
}

// Finalize closes the last sampling window and flushes all buffers. Call
// once when the accelerator goes idle.
func (u *Unit) Finalize(cycle int64) {
	if u == nil {
		return
	}
	u.Tick(cycle)
	if cycle > u.windowStart {
		u.closeWindow(cycle)
	}
	u.flushStates(cycle)
	u.flushEvents(cycle)
}

// TotalsFor returns lifetime counter totals of one thread; all zero for a
// nil unit.
func (u *Unit) TotalsFor(thread int) (stalls, intOps, fpOps, readBytes, writeBytes int64) {
	if u == nil {
		return
	}
	t := u.totals[thread]
	return t.stalls, t.intOps, t.fpOps, t.readBytes, t.writeBytes
}
