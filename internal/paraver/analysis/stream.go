package analysis

import (
	"bytes"
	"fmt"

	"paravis/internal/paraver"
)

// numEventTypes is the count of event types, EventStalls..EventWriteBytes.
const numEventTypes = 5

// StreamStats is the paraver.Visitor behind every number and view this
// reproduction reads off a trace — state residency, ASCII timelines, binned
// event series, totals and communication statistics — computed in a single
// pass over the record stream into fixed-size accumulators. The same fold
// serves a live run (StreamTrace.Scan) and a .prv file (ScanPRV); both
// deliver only records that passed the trace invariants, so the
// accumulators index by task and thread unchecked. Memory use is
// O(tasks*threads*timelineWidth + bins), independent of the trace length,
// so traces larger than RAM stream through.
type StreamStats struct {
	Hdr paraver.Header

	timelineWidth int
	bins          int   // series resolution; 0 when binWidth was given
	binWidth      int64 // cycles per series bin
	thread        int   // the series cover this thread only; -1 for all

	cycles [][4]int64 // per (task*NumThreads+thread) slot
	rows   []byte     // timeline rows, timelineWidth columns per slot

	// series and totals are indexed by event type - EventStalls; totals
	// always cover every thread.
	series [numEventTypes][]float64
	totals [numEventTypes]int64

	CommCount      int
	CommBytes      int64
	CommMaxLatency int64
}

// NewStreamStats builds an aggregator rendering timelines timelineWidth
// columns wide and binning every thread's events into bins buckets.
func NewStreamStats(timelineWidth, bins int) *StreamStats {
	if timelineWidth <= 0 {
		timelineWidth = 80
	}
	if bins <= 0 {
		bins = 64
	}
	return &StreamStats{timelineWidth: timelineWidth, bins: bins, thread: -1}
}

// NewStreamStatsWidth is NewStreamStats with the bin width given in cycles
// (the sampling period, say) and the series restricted to one thread (-1
// for all). Per-thread series reproduce the zoomed single-thread views of
// Figs. 8-9, where the load/compute phase structure is visible.
func NewStreamStatsWidth(timelineWidth int, binWidth int64, thread int) *StreamStats {
	st := NewStreamStats(timelineWidth, 0)
	st.bins, st.binWidth, st.thread = 0, max(binWidth, 1), thread
	return st
}

// Header sizes the accumulators from the trace dimensions.
func (st *StreamStats) Header(h paraver.Header) error {
	st.Hdr = h
	slots := h.Tasks * h.NumThreads
	st.cycles = make([][4]int64, slots)
	st.rows = bytes.Repeat([]byte{'.'}, slots*st.timelineWidth)
	if st.bins > 0 {
		st.binWidth = h.EndTime / int64(st.bins)
		if st.binWidth < 1 {
			st.binWidth = 1
		}
	}
	nBins := int((h.EndTime + st.binWidth - 1) / st.binWidth)
	if nBins == 0 {
		nBins = 1
	}
	vals := make([]float64, numEventTypes*nBins)
	for i := range st.series {
		st.series[i] = vals[i*nBins : (i+1)*nBins]
	}
	return nil
}

func (st *StreamStats) slot(task, thread int) int {
	return task*st.Hdr.NumThreads + thread
}

// stateGlyphs renders each state as one character: Idle '.', Running 'R',
// Critical 'C', Spinning 'S'.
var stateGlyphs = [4]byte{'.', 'R', 'C', 'S'}

// State accumulates one state interval and paints it on the timeline.
func (st *StreamStats) State(s paraver.StateRec) error {
	slot := st.slot(s.Task, s.Thread)
	st.cycles[slot][s.State] += s.End - s.Begin

	width := int64(st.timelineWidth)
	lo := int(s.Begin * width / st.Hdr.EndTime)
	hi := int((s.End*width + st.Hdr.EndTime - 1) / st.Hdr.EndTime)
	if hi > st.timelineWidth {
		hi = st.timelineWidth
	}
	if hi <= lo {
		hi = lo + 1
		if hi > st.timelineWidth {
			return nil
		}
	}
	// Later records overwrite earlier ones only with "louder" states
	// (Spinning > Critical > Running > Idle) so short critical/spin bursts
	// stay visible at coarse scale.
	row := st.rows[slot*st.timelineWidth : (slot+1)*st.timelineWidth]
	g := stateGlyphs[s.State]
	for c := lo; c < hi; c++ {
		cur := row[c]
		if cur == '.' || g == 'S' || (g == 'C' && cur != 'S') || (g == 'R' && cur == '.') {
			row[c] = g
		}
	}
	return nil
}

// Event totals and bins one event sample; unknown event types are ignored.
func (st *StreamStats) Event(e paraver.EventRec) error {
	i := uint(e.Type - paraver.EventStalls)
	if i >= numEventTypes {
		return nil
	}
	st.totals[i] += e.Value
	if st.thread >= 0 && e.Thread != st.thread {
		return nil
	}
	vals := st.series[i]
	bin := int(e.Time / st.binWidth)
	if bin >= len(vals) {
		bin = len(vals) - 1
	}
	vals[bin] += float64(e.Value)
	return nil
}

// Comm counts one communication record.
func (st *StreamStats) Comm(c paraver.CommRec) error {
	st.CommCount++
	st.CommBytes += c.Size
	if l := c.RecvTime - c.SendTime; l > st.CommMaxLatency {
		st.CommMaxLatency = l
	}
	return nil
}

// StateProfileTask integrates one task's state intervals into its
// per-thread residency profile.
func (st *StreamStats) StateProfileTask(task int) StateProfile {
	n, end := st.Hdr.NumThreads, st.Hdr.EndTime
	p := StateProfile{
		NumThreads: n,
		EndTime:    end,
		Cycles:     st.cycles[st.slot(task, 0):st.slot(task, n)],
		Fraction:   make([][4]float64, n),
	}
	if end > 0 {
		var totals [4]int64
		for t := 0; t < n; t++ {
			for s := 0; s < 4; s++ {
				p.Fraction[t][s] = float64(p.Cycles[t][s]) / float64(end)
				totals[s] += p.Cycles[t][s]
			}
		}
		for s := 0; s < 4; s++ {
			p.TotalFraction[s] = float64(totals[s]) / float64(end*int64(n))
		}
	}
	return p
}

// TimelineTask renders one task's state view as ASCII art: one row per
// thread, timelineWidth columns covering [0, EndTime).
func (st *StreamStats) TimelineTask(task int) []string {
	out := make([]string, st.Hdr.NumThreads)
	for t := range out {
		off := st.slot(task, t) * st.timelineWidth
		out[t] = fmt.Sprintf("T%d |%s|", t, st.rows[off:off+st.timelineWidth])
	}
	return out
}

// Series is the binned series of one event type.
func (st *StreamStats) Series(eventType int) Series {
	return Series{BinWidth: st.binWidth, Values: st.series[eventType-paraver.EventStalls]}
}

// MemSeries is the combined read+write byte series (the throughput view
// of Fig. 7).
func (st *StreamStats) MemSeries() Series {
	rd, wr := st.Series(paraver.EventReadBytes), st.Series(paraver.EventWriteBytes)
	mem := Series{BinWidth: st.binWidth, Values: make([]float64, len(rd.Values))}
	for i := range mem.Values {
		mem.Values[i] = rd.Values[i] + wr.Values[i]
	}
	return mem
}

// Total sums one event type over the whole trace.
func (st *StreamStats) Total(eventType int) int64 {
	return st.totals[eventType-paraver.EventStalls]
}

// AvgBandwidthBytesPerCycle is total traffic divided by execution time.
func (st *StreamStats) AvgBandwidthBytesPerCycle() float64 {
	if st.Hdr.EndTime == 0 {
		return 0
	}
	return float64(st.Total(paraver.EventReadBytes)+st.Total(paraver.EventWriteBytes)) / float64(st.Hdr.EndTime)
}

// GFlops is the sustained GFLOP/s over the trace at the given clock (the
// pi case-study metric).
func (st *StreamStats) GFlops(freqMHz float64) float64 {
	if st.Hdr.EndTime == 0 {
		return 0
	}
	seconds := float64(st.Hdr.EndTime) / (freqMHz * 1e6)
	return float64(st.Total(paraver.EventFpOps)) / seconds / 1e9
}
