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
	NumThreads int
	EndTime    int64
	States     []StateRec
	Events     []EventRec
}

func (t *recTrace) Header(h Header) error {
	t.NumThreads, t.EndTime = h.NumThreads, h.EndTime
	return nil
}

func (t *recTrace) State(s StateRec) error { t.States = append(t.States, s); return nil }
func (t *recTrace) Event(e EventRec) error { t.Events = append(t.Events, e); return nil }

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

// normalize sorts records into canonical order (states by thread, begin;
// events time-major, then thread, type) and coalesces adjacent equal-state
// intervals per thread.
func (t *recTrace) normalize() {
	sort.SliceStable(t.States, func(i, j int) bool {
		a, b := t.States[i], t.States[j]
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
			if last.Thread == s.Thread && last.State == s.State && last.End == s.Begin {
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
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		return a.Type < b.Type
	})
}

// writePRV is the reference writer over the record lists.
func (t *recTrace) writePRV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#Paraver (01/01/00 at 00:00):%d:1(%d):1:1(%d:1)\n",
		t.EndTime, t.NumThreads, t.NumThreads)
	// Thread i runs on cpu i+1 of task 1.
	for _, s := range t.States {
		fmt.Fprintf(bw, "1:%d:1:1:%d:%d:%d:%d\n", s.Thread+1, s.Thread+1, s.Begin, s.End, s.State)
	}
	// Group events that share (thread, time) into one record.
	for i := 0; i < len(t.Events); {
		ev := t.Events[i]
		var sb strings.Builder
		fmt.Fprintf(&sb, "2:%d:1:1:%d:%d", ev.Thread+1, ev.Thread+1, ev.Time)
		for ; i < len(t.Events) && t.Events[i].Thread == ev.Thread && t.Events[i].Time == ev.Time; i++ {
			fmt.Fprintf(&sb, ":%d:%d", t.Events[i].Type, t.Events[i].Value)
		}
		fmt.Fprintln(bw, sb.String())
	}
	return bw.Flush()
}

// stream loads the (normalized) records into a StreamTrace, one sample per
// event, so hand-written traces can drive the production writer, Scan and
// the invariant checks.
func (t *recTrace) stream() *StreamTrace {
	st := &StreamTrace{
		AppName:    t.AppName,
		NumThreads: t.NumThreads,
		EndTime:    t.EndTime,
		threads:    make([]threadStream, t.NumThreads),
	}
	for _, s := range t.States {
		ts := &st.threads[s.Thread]
		ts.closed = append(ts.closed, profile.StateRun{Begin: s.Begin, End: s.End, State: profile.ThreadState(s.State)})
	}
	for _, e := range t.Events {
		s := profile.EventSample{End: e.Time, Thread: e.Thread}
		*[]*int64{&s.Stalls, &s.IntOps, &s.FpOps, &s.ReadBytes, &s.WriteBytes}[e.Type-EventStalls] = e.Value
		ts := &st.threads[e.Thread]
		ts.samples = append(ts.samples, s)
	}
	return st
}
