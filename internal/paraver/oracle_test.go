package paraver

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"paravis/internal/profile"
)

// recTrace is the test oracle: a trace materialized as record lists, with
// a reference .prv writer built on fmt and a profile conversion built on
// global sorts; it shares neither the k-way merge nor the AppendInt writer
// of the code it is compared against. As a Visitor it collects whatever a
// scan delivers.
type recTrace struct {
	AppName    string
	Tasks      int // 0 or 1 = single accelerator
	NumThreads int
	EndTime    int64
	States     []StateRec
	Events     []EventRec
	Comms      []CommRec
}

func (t *recTrace) numTasks() int {
	if t.Tasks <= 0 {
		return 1
	}
	return t.Tasks
}

func (t *recTrace) Header(h Header) error {
	t.Tasks, t.NumThreads, t.EndTime = h.Tasks, h.NumThreads, h.EndTime
	return nil
}

func (t *recTrace) State(s StateRec) error { t.States = append(t.States, s); return nil }
func (t *recTrace) Event(e EventRec) error { t.Events = append(t.Events, e); return nil }
func (t *recTrace) Comm(c CommRec) error   { t.Comms = append(t.Comms, c); return nil }

// parsePRV collects a .prv stream and normalizes it.
func parsePRV(r io.Reader) (*recTrace, error) {
	t := &recTrace{}
	if err := ScanPRV(r, t); err != nil {
		return nil, err
	}
	t.normalize()
	return t, nil
}

// fromProfile expands every run and sample of a finalized profiling unit
// into records and sorts them into canonical order.
func fromProfile(u *profile.Unit, appName string, endTime int64) *recTrace {
	t := &recTrace{AppName: appName, NumThreads: u.NumThreads(), EndTime: endTime}
	for th := 0; th < u.NumThreads(); th++ {
		runs := append([]profile.StateRun(nil), u.StateRuns(th)...)
		if tail, ok := u.OpenStateRun(th, endTime); ok {
			runs = append(runs, tail)
		}
		for _, r := range runs {
			t.States = append(t.States, StateRec{Thread: th, Begin: r.Begin, End: r.End, State: int(r.State)})
		}
		for _, s := range u.ThreadSamples(th) {
			at := s.End
			if at > endTime {
				at = endTime
			}
			for i, v := range []int64{s.Stalls, s.IntOps, s.FpOps, s.ReadBytes, s.WriteBytes} {
				if v != 0 {
					t.Events = append(t.Events, EventRec{Thread: th, Time: at, Type: EventStalls + i, Value: v})
				}
			}
		}
	}
	t.normalize()
	return t
}

// normalize sorts records into canonical order (states by task, thread,
// begin; events time-major, then task, thread, type) and coalesces
// adjacent equal-state intervals per thread.
func (t *recTrace) normalize() {
	sort.SliceStable(t.States, func(i, j int) bool {
		a, b := t.States[i], t.States[j]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		return a.Begin < b.Begin
	})
	merged := t.States[:0]
	for _, s := range t.States {
		if s.End <= s.Begin {
			continue
		}
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.Task == s.Task && last.Thread == s.Thread && last.State == s.State && last.End == s.Begin {
				last.End = s.End
				continue
			}
		}
		merged = append(merged, s)
	}
	t.States = merged
	sort.SliceStable(t.Events, func(i, j int) bool {
		a, b := t.Events[i], t.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		return a.Type < b.Type
	})
	sortCommRecs(t.Comms)
}

// sortCommRecs orders communication records by send time, then receive
// time (the canonical .prv order).
func sortCommRecs(comms []CommRec) {
	sort.SliceStable(comms, func(i, j int) bool {
		if comms[i].SendTime != comms[j].SendTime {
			return comms[i].SendTime < comms[j].SendTime
		}
		return comms[i].RecvTime < comms[j].RecvTime
	})
}

// writePRV is the reference writer over the record lists.
func (t *recTrace) writePRV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cpu := func(task, thread int) int { return cpuID(task, thread, t.NumThreads) }
	fmt.Fprintf(bw, "#Paraver (01/01/00 at 00:00):%d:1(%d):1:%s\n",
		t.EndTime, t.numTasks()*t.NumThreads, applList(t.numTasks(), t.NumThreads))
	for _, s := range t.States {
		fmt.Fprintf(bw, "1:%d:1:%d:%d:%d:%d:%d\n",
			cpu(s.Task, s.Thread), s.Task+1, s.Thread+1, s.Begin, s.End, s.State)
	}
	// Group events that share (task, thread, time) into one record.
	for i := 0; i < len(t.Events); {
		ev := t.Events[i]
		var sb strings.Builder
		fmt.Fprintf(&sb, "2:%d:1:%d:%d:%d", cpu(ev.Task, ev.Thread), ev.Task+1, ev.Thread+1, ev.Time)
		for ; i < len(t.Events) && t.Events[i].Task == ev.Task && t.Events[i].Thread == ev.Thread && t.Events[i].Time == ev.Time; i++ {
			fmt.Fprintf(&sb, ":%d:%d", t.Events[i].Type, t.Events[i].Value)
		}
		fmt.Fprintln(bw, sb.String())
	}
	for _, c := range t.Comms {
		fmt.Fprintf(bw, "3:%d:1:%d:%d:%d:%d:%d:1:%d:%d:%d:%d:%d:%d\n",
			cpu(c.SendTask, c.SendThread), c.SendTask+1, c.SendThread+1, c.SendTime, c.SendTime,
			cpu(c.RecvTask, c.RecvThread), c.RecvTask+1, c.RecvThread+1, c.RecvTime, c.RecvTime,
			c.Size, c.Tag)
	}
	return bw.Flush()
}

// stream loads the (normalized) records into a StreamTrace, one sample per
// event, so hand-written traces can drive the production writer, Scan and
// the invariant checks.
func (t *recTrace) stream() *StreamTrace {
	st := newStreamTrace(t.AppName, t.numTasks(), t.NumThreads)
	st.EndTime = t.EndTime
	for _, s := range t.States {
		ts := &st.threads[s.Task*t.NumThreads+s.Thread]
		ts.closed = append(ts.closed, profile.StateRun{Begin: s.Begin, End: s.End, State: profile.ThreadState(s.State)})
	}
	for _, e := range t.Events {
		s := profile.EventSample{End: e.Time, Thread: e.Thread}
		*[]*int64{&s.Stalls, &s.IntOps, &s.FpOps, &s.ReadBytes, &s.WriteBytes}[e.Type-EventStalls] = e.Value
		ts := &st.threads[e.Task*t.NumThreads+e.Thread]
		ts.samples = append(ts.samples, s)
	}
	st.Comms = t.Comms
	return st
}

// newStreamTrace allocates an empty multi-task stream trace to be filled
// with appendProfile (one task per accelerator).
func newStreamTrace(appName string, tasks, numThreads int) *StreamTrace {
	if tasks < 1 {
		tasks = 1
	}
	return &StreamTrace{
		AppName:    appName,
		TaskCount:  tasks,
		NumThreads: numThreads,
		threads:    make([]threadStream, tasks*numThreads),
	}
}

// appendProfile appends one accelerator run's streams to task `task`,
// shifting all times by offset and clamping event times to runEnd (the
// run's own final cycle). Appends for the same task must arrive in time
// order; the caller sets EndTime afterwards.
func (st *StreamTrace) appendProfile(task int, u *profile.Unit, offset, runEnd int64) {
	for t := 0; t < st.NumThreads; t++ {
		ts := &st.threads[task*st.NumThreads+t]
		for _, r := range u.StateRuns(t) {
			ts.appendRun(profile.StateRun{Begin: r.Begin + offset, End: r.End + offset, State: r.State})
		}
		if tail, ok := u.OpenStateRun(t, runEnd); ok {
			ts.appendRun(profile.StateRun{Begin: tail.Begin + offset, End: tail.End + offset, State: tail.State})
		}
		for _, s := range u.ThreadSamples(t) {
			at := s.End
			if at > runEnd {
				at = runEnd
			}
			s.Start += offset
			s.End = at + offset
			ts.samples = append(ts.samples, s)
		}
	}
}

// appendRun appends a closed run, coalescing with the previous one when
// contiguous and equal-state.
func (ts *threadStream) appendRun(r profile.StateRun) {
	if r.End <= r.Begin {
		return
	}
	if n := len(ts.closed); n > 0 && ts.closed[n-1].State == r.State && ts.closed[n-1].End == r.Begin {
		ts.closed[n-1].End = r.End
		return
	}
	ts.closed = append(ts.closed, r)
}
