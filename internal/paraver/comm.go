package paraver

import "fmt"

// This file covers multi-task traces with communication records — the
// paper's stated future work ("we plan to extend our infrastructure for
// communication between FPGAs in a multi-FPGA setup"). Each FPGA maps to
// one Paraver task; inter-task transfers are record type 3 lines:
//
//	3:cpuS:1:taskS:thS:ltimeS:ptimeS:cpuR:1:taskR:thR:ltimeR:ptimeR:size:tag
//
// with logical and physical times equal. The simulator produces
// single-task traces only, but WritePRV, Scan and ScanPRV carry comm
// records through, so .prv files from other producers read unchanged.

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
