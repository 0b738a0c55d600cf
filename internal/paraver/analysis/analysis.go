// Package analysis computes the data behind the Paraver views the paper
// uses: the state timeline (Fig. 6, 11-13), per-thread state residency
// percentages, and time-binned event series for memory throughput and
// compute performance (Figs. 7-9). Since this reproduction has no GUI, each
// view is a data structure (plus an ASCII rendering for the state view),
// and every one of them is read off a single fold over the record stream:
// StreamStats. A trace is one accelerator, so every view is indexed by
// hardware thread alone.
package analysis

import (
	"fmt"
	"strings"
)

// StateProfile summarizes per-thread state residency.
type StateProfile struct {
	NumThreads int
	EndTime    int64
	// Cycles[t][s] is the time thread t spent in state s.
	Cycles [][4]int64
	// Fraction[t][s] is Cycles normalized by EndTime.
	Fraction [][4]float64
	// TotalFraction[s] aggregates over threads.
	TotalFraction [4]float64
}

// Series is a time-binned event aggregation.
type Series struct {
	BinWidth int64
	// Values[i] aggregates events with Time in [i*BinWidth, (i+1)*BinWidth).
	Values []float64
}

// Bins returns the number of bins.
func (s Series) Bins() int { return len(s.Values) }

// Sum totals the series.
func (s Series) Sum() float64 {
	var t float64
	for _, v := range s.Values {
		t += v
	}
	return t
}

// Max returns the peak bin value.
func (s Series) Max() float64 {
	var m float64
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// BandwidthGBs converts bytes/cycle to GB/s at the given clock.
func BandwidthGBs(bytesPerCycle float64, freqMHz float64) float64 {
	return bytesPerCycle * freqMHz * 1e6 / 1e9
}

// PhaseStats classifies bins by activity, quantifying the load/compute
// alternation of the blocked GEMM (Fig. 8) versus the overlap of the
// double-buffered version (Fig. 9).
type PhaseStats struct {
	Bins        int
	MemOnly     int
	ComputeOnly int
	Both        int
	Idle        int
}

// Overlap is the fraction of active bins where memory traffic and compute
// proceed concurrently.
func (p PhaseStats) Overlap() float64 {
	active := p.MemOnly + p.ComputeOnly + p.Both
	if active == 0 {
		return 0
	}
	return float64(p.Both) / float64(active)
}

func (p PhaseStats) String() string {
	return fmt.Sprintf("bins=%d mem-only=%d compute-only=%d both=%d idle=%d overlap=%.2f",
		p.Bins, p.MemOnly, p.ComputeOnly, p.Both, p.Idle, p.Overlap())
}

// ClassifyPhases classifies each bin of two equally binned series as
// memory-only, compute-only, both or idle. The thresholds are fractions of
// the respective series peak (0 counts any activity). The paper's Figs. 8-9
// compare one thread's iterations, where the blocked version shows
// disjoint load/compute phases and the double-buffered version overlaps
// them.
func ClassifyPhases(mem, fp Series, memFrac, fpFrac float64) PhaseStats {
	memThresh := mem.Max() * memFrac
	fpThresh := fp.Max() * fpFrac
	st := PhaseStats{Bins: len(mem.Values)}
	for i := range mem.Values {
		m := mem.Values[i] > memThresh
		c := fp.Values[i] > fpThresh
		switch {
		case m && c:
			st.Both++
		case m:
			st.MemOnly++
		case c:
			st.ComputeOnly++
		default:
			st.Idle++
		}
	}
	return st
}

// RenderSeries draws a series as a one-line sparkline using eight shading
// levels, for terminal output of the Fig. 7-9 views.
func RenderSeries(s Series, width int) string {
	if width <= 0 {
		width = 80
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	vals := make([]float64, width)
	if len(s.Values) > 0 {
		for i := 0; i < width; i++ {
			lo := i * len(s.Values) / width
			hi := (i + 1) * len(s.Values) / width
			if hi <= lo {
				hi = lo + 1
			}
			var m float64
			for j := lo; j < hi && j < len(s.Values); j++ {
				if s.Values[j] > m {
					m = s.Values[j]
				}
			}
			vals[i] = m
		}
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(glyphs)-1))
		}
		sb.WriteRune(glyphs[idx])
	}
	return sb.String()
}
