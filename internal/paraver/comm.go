package paraver

import (
	"fmt"
	"sort"
)

// This file extends the trace model to multi-task traces with
// communication records — the paper's stated future work ("we plan to
// extend our infrastructure for communication between FPGAs in a
// multi-FPGA setup"). Each FPGA maps to one Paraver task; inter-FPGA
// transfers become record type 3 lines:
//
//	3:cpuS:1:taskS:thS:ltimeS:ptimeS:cpuR:1:taskR:thR:ltimeR:ptimeR:size:tag
//
// with logical and physical times equal (the link model gives physical
// times directly).

// CommRec is one inter-task transfer.
type CommRec struct {
	SendTask   int // 0-based
	SendThread int
	RecvTask   int
	RecvThread int
	SendTime   int64
	RecvTime   int64
	Size       int64 // bytes
	Tag        int64
}

// cpuID maps (task, thread) to a global 1-based CPU id.
func cpuID(task, thread, nThreads int) int {
	return task*nThreads + thread + 1
}

// applList renders the header's application list: one application whose
// tasks each have nThreads threads on node 1.
func applList(tasks, nThreads int) string {
	s := fmt.Sprintf("%d(", tasks)
	for i := 0; i < tasks; i++ {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d:1", nThreads)
	}
	return s + ")"
}

// SortCommRecs orders communication records by send time, then receive
// time (the canonical .prv order).
func SortCommRecs(comms []CommRec) {
	sort.SliceStable(comms, func(i, j int) bool {
		if comms[i].SendTime != comms[j].SendTime {
			return comms[i].SendTime < comms[j].SendTime
		}
		return comms[i].RecvTime < comms[j].RecvTime
	})
}
