// Package paraver reads and writes Paraver trace bundles (.prv trace,
// .pcf configuration, .row labels) and converts the profiling unit's raw
// records into them. Paraver cannot express cycles, so — exactly as the
// paper does — one trace time unit is one accelerator clock cycle ("for all
// cases in the graphs where microseconds are used, these are in fact
// cycles").
package paraver

import "fmt"

// Event type identifiers used in .prv/.pcf files. The numbering follows
// Paraver conventions for user-defined counters.
const (
	EventStalls     = 100001
	EventIntOps     = 100002
	EventFpOps      = 100003
	EventReadBytes  = 100004
	EventWriteBytes = 100005
)

// EventTypeNames maps event types to their .pcf labels.
var EventTypeNames = map[int]string{
	EventStalls:     "Pipeline stalls",
	EventIntOps:     "Integer operations",
	EventFpOps:      "Floating-point operations",
	EventReadBytes:  "Memory bytes read",
	EventWriteBytes: "Memory bytes written",
}

// StateNames maps the 2-bit hardware states to Paraver state labels. The
// numbering matches the paper's encoding (00 idle, 01 running, 10 critical,
// 11 spinning).
var StateNames = [4]string{"Idle", "Running", "Critical", "Spinning"}

// StateColors are the RGB colors of Fig. 6: black idle, green running,
// blue critical, red spinning.
var StateColors = [4][3]int{
	{0, 0, 0},
	{0, 170, 0},
	{0, 0, 200},
	{200, 0, 0},
}

// StateRec is one thread-state interval [Begin, End).
type StateRec struct {
	Task   int // 0-based; 0 in single-accelerator traces
	Thread int // 0-based
	Begin  int64
	End    int64
	State  int
}

// EventRec is one punctual event sample.
type EventRec struct {
	Task   int // 0-based; 0 in single-accelerator traces
	Thread int // 0-based
	Time   int64
	Type   int
	Value  int64
}

// Header carries the trace-wide facts of the #Paraver line: one
// application with Tasks tasks (one per accelerator) of NumThreads hardware
// threads each, ending at EndTime.
type Header struct {
	Tasks      int
	NumThreads int
	EndTime    int64
}

// Visitor receives a trace's records in canonical .prv order: the header,
// every state interval by (task, thread, begin), every event by (time,
// task, thread, type), then the communication records. StreamTrace.Scan
// delivers a live run and ScanPRV a .prv file in exactly the same order,
// and both check the trace invariants before each call, so a visitor only
// ever sees in-range, well-ordered records. Returning an error aborts the
// scan.
type Visitor interface {
	Header(h Header) error
	State(s StateRec) error
	Event(e EventRec) error
	Comm(c CommRec) error
}

// Discard is the Visitor that ignores every record: embed it to implement
// only the methods a fold needs, or scan into it to run the invariant
// checks alone.
type Discard struct{}

func (Discard) Header(Header) error  { return nil }
func (Discard) State(StateRec) error { return nil }
func (Discard) Event(EventRec) error { return nil }
func (Discard) Comm(CommRec) error   { return nil }

// checker holds the trace invariants, the one place they are written:
// tasks and threads in range, state intervals inside [0, EndTime], non-empty
// and non-overlapping per (task, thread), known state codes, event times
// inside the trace window, and communication-record sanity. Both scan
// entry points run every record through it before the visitor sees it.
type checker struct {
	h       Header
	lastEnd []int64 // per (task, thread): end of the latest state interval
}

func newChecker(h Header) *checker {
	return &checker{h: h, lastEnd: make([]int64, h.Tasks*h.NumThreads)}
}

func (c *checker) inRange(task, thread int) bool {
	return task >= 0 && task < c.h.Tasks && thread >= 0 && thread < c.h.NumThreads
}

func (c *checker) state(s *StateRec) error {
	if !c.inRange(s.Task, s.Thread) {
		return fmt.Errorf("state record task %d thread %d out of range", s.Task, s.Thread)
	}
	if s.Begin < 0 || s.End > c.h.EndTime || s.End <= s.Begin {
		return fmt.Errorf("bad state interval [%d,%d) (end %d)", s.Begin, s.End, c.h.EndTime)
	}
	if s.State < 0 || s.State > 3 {
		return fmt.Errorf("unknown state %d", s.State)
	}
	slot := s.Task*c.h.NumThreads + s.Thread
	if c.lastEnd[slot] > s.Begin {
		return fmt.Errorf("overlapping intervals for task %d thread %d at %d", s.Task, s.Thread, s.Begin)
	}
	c.lastEnd[slot] = s.End
	return nil
}

// event checks the (task, thread, time) shared by one sample's events.
func (c *checker) event(task, thread int, time int64) error {
	if !c.inRange(task, thread) {
		return fmt.Errorf("event task %d thread %d out of range", task, thread)
	}
	if time < 0 || time > c.h.EndTime {
		return fmt.Errorf("event time %d outside [0,%d]", time, c.h.EndTime)
	}
	return nil
}

func (c *checker) comm(m *CommRec) error {
	if !c.inRange(m.SendTask, m.SendThread) || !c.inRange(m.RecvTask, m.RecvThread) {
		return fmt.Errorf("comm endpoint out of range: %+v", *m)
	}
	if m.RecvTime < m.SendTime {
		return fmt.Errorf("comm received before sent: %+v", *m)
	}
	if m.SendTime < 0 || m.RecvTime > c.h.EndTime {
		return fmt.Errorf("comm outside trace window: %+v", *m)
	}
	if m.Size <= 0 {
		return fmt.Errorf("comm with size %d", m.Size)
	}
	return nil
}
