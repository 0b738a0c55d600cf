package paraver

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"paravis/internal/profile"
)

// StreamTrace is the in-memory Paraver trace: per-(task,thread) state-run
// and event-sample streams in columnar form, each sorted by construction.
// WritePRV k-way-merges the streams straight into the .prv writer — no
// record lists and no global sorts — using a strconv.AppendInt fast path
// into a reused line buffer; Scan walks the same merge into a Visitor, so
// an analysis reads a live run exactly as ScanPRV would read its .prv file.
type StreamTrace struct {
	AppName    string
	TaskCount  int // >= 1
	NumThreads int
	// EndTime is the trace horizon; event times are clamped to it at
	// emission (the profiling unit's final window can close a few cycles
	// after the last thread finished, during the flush drain).
	EndTime int64
	Comms   []CommRec

	threads []threadStream // task-major: threads[task*NumThreads+thread]
}

// threadStream holds one hardware thread's record streams, borrowed
// zero-copy from the profiling unit by StreamOf.
type threadStream struct {
	closed  []profile.StateRun
	tail    profile.StateRun
	hasTail bool
	samples []profile.EventSample
}

// StreamOf wraps a finalized profiling unit as a streaming trace without
// copying any records: the state-run and event-sample slices are borrowed
// from the unit, so they stay valid only while the unit records nothing
// further. endTime is the final cycle of the run.
func StreamOf(u *profile.Unit, appName string, endTime int64) *StreamTrace {
	n := u.NumThreads()
	st := &StreamTrace{
		AppName:    appName,
		TaskCount:  1,
		NumThreads: n,
		EndTime:    endTime,
		threads:    make([]threadStream, n),
	}
	for t := 0; t < n; t++ {
		ts := &st.threads[t]
		ts.closed = u.StateRuns(t)
		ts.tail, ts.hasTail = u.OpenStateRun(t, endTime)
		ts.samples = u.ThreadSamples(t)
	}
	return st
}

// forEachRun yields the thread's runs in canonical order until yield
// returns false: empty runs skipped, adjacent contiguous equal-state runs
// coalesced (including the borrowed open tail, which can repeat the last
// closed run's state after a same-cycle state bounce).
func (ts *threadStream) forEachRun(yield func(profile.StateRun) bool) {
	var pend profile.StateRun
	have := false
	put := func(r profile.StateRun) bool {
		if r.End <= r.Begin {
			return true
		}
		if have && pend.State == r.State && pend.End == r.Begin {
			pend.End = r.End
			return true
		}
		ok := !have || yield(pend)
		pend = r
		have = true
		return ok
	}
	for _, r := range ts.closed {
		if !put(r) {
			return
		}
	}
	if ts.hasTail && !put(ts.tail) {
		return
	}
	if have {
		yield(pend)
	}
}

// sampleMerge k-way-merges the per-thread sample streams by (clamped
// time, task, thread). This is the event order of a .prv file — the one a
// global stable sort of the expanded records would produce.
type sampleMerge struct {
	st  *StreamTrace
	idx []int // per thread slot: next unmerged sample
}

func (st *StreamTrace) mergeSamples() sampleMerge {
	return sampleMerge{st: st, idx: make([]int, len(st.threads))}
}

// next returns one group per (thread slot, time): the consecutive samples
// of that thread sharing the clamped time; ok is false once every stream
// is drained.
func (m *sampleMerge) next() (slot int, time int64, group []profile.EventSample, ok bool) {
	end := m.st.EndTime
	clamp := func(t int64) int64 {
		if t > end {
			return end
		}
		return t
	}
	slot = -1
	for i := range m.idx {
		if m.idx[i] >= len(m.st.threads[i].samples) {
			continue
		}
		t := clamp(m.st.threads[i].samples[m.idx[i]].End)
		if slot < 0 || t < time {
			slot, time = i, t
		}
	}
	if slot < 0 {
		return 0, 0, nil, false
	}
	ss := m.st.threads[slot].samples
	j := m.idx[slot]
	k := j + 1
	for k < len(ss) && clamp(ss[k].End) == time {
		k++
	}
	m.idx[slot] = k
	return slot, time, ss[j:k], true
}

// sampleValue returns the counter of the given event-type index (in
// EventStalls..EventWriteBytes order).
func sampleValue(s *profile.EventSample, typeIdx int) int64 {
	switch typeIdx {
	case 0:
		return s.Stalls
	case 1:
		return s.IntOps
	case 2:
		return s.FpOps
	case 3:
		return s.ReadBytes
	default:
		return s.WriteBytes
	}
}

// prvWriter formats .prv records into a reused byte buffer; the first
// write error sticks and short-circuits all further output.
type prvWriter struct {
	bw  *bufio.Writer
	buf []byte
	err error
}

func (p *prvWriter) line() {
	if p.err != nil {
		return
	}
	p.buf = append(p.buf, '\n')
	if _, err := p.bw.Write(p.buf); err != nil {
		p.err = err
	}
	p.buf = p.buf[:0]
}

func (p *prvWriter) str(s string)   { p.buf = append(p.buf, s...) }
func (p *prvWriter) int(v int64)    { p.buf = strconv.AppendInt(p.buf, v, 10) }
func (p *prvWriter) colInt(v int64) { p.buf = append(p.buf, ':'); p.int(v) }

// WritePRV streams the trace body in Paraver .prv format:
//
//	#Paraver (dd/mm/yy at hh:mm):endTime:nNodes(nCpus):nAppl:applList
//	1:cpu:appl:task:thread:begin:end:state
//	2:cpu:appl:task:thread:time:type:value[:type:value...]
//
// One node, one application, one task per accelerator of NumThreads
// threads; thread i of task k runs on cpu k*NumThreads+i+1. The timestamp
// in the header is fixed for reproducibility (Paraver ignores it). Write
// errors are sticky: the first one (e.g. a full disk) aborts the walk, so
// a truncated .prv can never be reported as success.
func (st *StreamTrace) WritePRV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	p := &prvWriter{bw: bw, buf: make([]byte, 0, 256)}

	p.str("#Paraver (01/01/00 at 00:00):")
	p.int(st.EndTime)
	p.str(":1(")
	p.int(int64(st.TaskCount * st.NumThreads))
	p.str("):1:")
	p.str(applList(st.TaskCount, st.NumThreads))
	p.line()

	st.writeStates(p)
	st.writeEvents(p)
	st.writeComms(p)

	if p.err != nil {
		return p.err
	}
	return bw.Flush()
}

// writeStates emits all state records. Canonical order is (task, thread,
// begin); per-thread streams are begin-sorted by construction, so plain
// concatenation is already sorted — no merge needed.
func (st *StreamTrace) writeStates(p *prvWriter) {
	for ti := range st.threads {
		if p.err != nil {
			return
		}
		task, th := ti/st.NumThreads, ti%st.NumThreads
		st.threads[ti].forEachRun(func(r profile.StateRun) bool {
			p.str("1:")
			p.int(int64(cpuID(task, th, st.NumThreads)))
			p.str(":1")
			p.colInt(int64(task + 1))
			p.colInt(int64(th + 1))
			p.colInt(r.Begin)
			p.colInt(r.End)
			p.colInt(int64(r.State))
			p.line()
			return p.err == nil
		})
	}
}

// writeEvents emits one grouped record per sample group, expanding each
// sample's counters in event-type order and skipping zeros.
func (st *StreamTrace) writeEvents(p *prvWriter) {
	for m := st.mergeSamples(); p.err == nil; {
		slot, time, group, ok := m.next()
		if !ok {
			return
		}
		task, th := slot/st.NumThreads, slot%st.NumThreads
		p.str("2:")
		p.int(int64(cpuID(task, th, st.NumThreads)))
		p.str(":1")
		p.colInt(int64(task + 1))
		p.colInt(int64(th + 1))
		p.colInt(time)
		for typeIdx := 0; typeIdx < 5; typeIdx++ {
			for gi := range group {
				if v := sampleValue(&group[gi], typeIdx); v != 0 {
					p.colInt(int64(EventStalls + typeIdx))
					p.colInt(v)
				}
			}
		}
		p.line()
	}
}

func (st *StreamTrace) writeComms(p *prvWriter) {
	for i := range st.Comms {
		if p.err != nil {
			return
		}
		c := &st.Comms[i]
		p.str("3:")
		p.int(int64(cpuID(c.SendTask, c.SendThread, st.NumThreads)))
		p.str(":1")
		p.colInt(int64(c.SendTask + 1))
		p.colInt(int64(c.SendThread + 1))
		p.colInt(c.SendTime)
		p.colInt(c.SendTime)
		p.colInt(int64(cpuID(c.RecvTask, c.RecvThread, st.NumThreads)))
		p.str(":1")
		p.colInt(int64(c.RecvTask + 1))
		p.colInt(int64(c.RecvThread + 1))
		p.colInt(c.RecvTime)
		p.colInt(c.RecvTime)
		p.colInt(c.Size)
		p.colInt(c.Tag)
		p.line()
	}
}

// Scan delivers the trace to v in exactly the order WritePRV writes it and
// ScanPRV re-reads it — header, states, merged events (one call per
// non-zero counter), communication records — checking the trace
// invariants on the way, so a visitor written for .prv files reads a live
// run unchanged and a malformed merge fails at the offending record.
func (st *StreamTrace) Scan(v Visitor) error {
	h := Header{Tasks: st.TaskCount, NumThreads: st.NumThreads, EndTime: st.EndTime}
	c := newChecker(h)
	err := v.Header(h)
	for ti := 0; ti < len(st.threads) && err == nil; ti++ {
		task, th := ti/st.NumThreads, ti%st.NumThreads
		st.threads[ti].forEachRun(func(r profile.StateRun) bool {
			s := StateRec{Task: task, Thread: th, Begin: r.Begin, End: r.End, State: int(r.State)}
			if err = c.state(&s); err == nil {
				err = v.State(s)
			}
			return err == nil
		})
	}
	for m := st.mergeSamples(); err == nil; {
		slot, time, group, ok := m.next()
		if !ok {
			break
		}
		task, th := slot/st.NumThreads, slot%st.NumThreads
		err = c.event(task, th, time)
		for typeIdx := 0; typeIdx < 5; typeIdx++ {
			for gi := 0; gi < len(group) && err == nil; gi++ {
				if val := sampleValue(&group[gi], typeIdx); val != 0 {
					err = v.Event(EventRec{Task: task, Thread: th, Time: time, Type: EventStalls + typeIdx, Value: val})
				}
			}
		}
	}
	for i := 0; i < len(st.Comms) && err == nil; i++ {
		if err = c.comm(&st.Comms[i]); err == nil {
			err = v.Comm(st.Comms[i])
		}
	}
	if err != nil {
		return fmt.Errorf("paraver: %w", err)
	}
	return nil
}

// Validate checks the trace invariants over every record: the same walk
// as Scan, into a visitor that keeps nothing.
func (st *StreamTrace) Validate() error { return st.Scan(Discard{}) }
