package paraver

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WritePCF writes the Paraver configuration file describing states,
// their colors, and the event types (trace-independent).
func (st *StreamTrace) WritePCF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "DEFAULT_OPTIONS")
	fmt.Fprintln(bw, "")
	fmt.Fprintln(bw, "LEVEL               THREAD")
	fmt.Fprintln(bw, "UNITS               NANOSEC")
	fmt.Fprintln(bw, "LOOK_BACK           100")
	fmt.Fprintln(bw, "SPEED               1")
	fmt.Fprintln(bw, "FLAG_ICONS          ENABLED")
	fmt.Fprintln(bw, "NUM_OF_STATE_COLORS 1000")
	fmt.Fprintln(bw, "YMAX_SCALE          37")
	fmt.Fprintln(bw, "")
	fmt.Fprintln(bw, "DEFAULT_SEMANTIC")
	fmt.Fprintln(bw, "")
	fmt.Fprintln(bw, "THREAD_FUNC         State As Is")
	fmt.Fprintln(bw, "")
	fmt.Fprintln(bw, "STATES")
	for i, name := range StateNames {
		fmt.Fprintf(bw, "%d    %s\n", i, name)
	}
	fmt.Fprintln(bw, "")
	fmt.Fprintln(bw, "STATES_COLOR")
	for i, c := range StateColors {
		fmt.Fprintf(bw, "%d    {%d,%d,%d}\n", i, c[0], c[1], c[2])
	}
	fmt.Fprintln(bw, "")
	for _, typ := range []int{EventStalls, EventIntOps, EventFpOps, EventReadBytes, EventWriteBytes} {
		fmt.Fprintln(bw, "EVENT_TYPE")
		fmt.Fprintf(bw, "0    %d    %s\n", typ, EventTypeNames[typ])
		fmt.Fprintln(bw, "")
	}
	return bw.Flush()
}

// WriteROW writes the Paraver label file naming CPUs, nodes and threads.
func (st *StreamTrace) WriteROW(w io.Writer) error {
	bw := bufio.NewWriter(w)
	n := st.NumThreads
	fmt.Fprintf(bw, "LEVEL CPU SIZE %d\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "CPU 1.%d\n", i+1)
	}
	fmt.Fprintln(bw, "")
	fmt.Fprintln(bw, "LEVEL NODE SIZE 1")
	fmt.Fprintln(bw, "fpga-accelerator")
	fmt.Fprintln(bw, "")
	fmt.Fprintf(bw, "LEVEL THREAD SIZE %d\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "FPGA1 HW THREAD 1.1.%d\n", i+1)
	}
	return bw.Flush()
}

// WriteBundle streams trace.prv/.pcf/.row under dir with the given base
// name and returns the .prv path.
func (st *StreamTrace) WriteBundle(dir, base string) (string, error) {
	return st.writeBundle(dir, base, false)
}

// WriteBundleGz streams the bundle with a gzip-compressed trace body
// (trace.prv.gz + plain .pcf/.row), addressing the trace-volume problem the
// paper's background section raises ("how to manage the often tens of GBs
// of trace-data") — Paraver's wxparaver opens .prv.gz directly. The records
// never exist uncompressed on disk or in memory.
func (st *StreamTrace) WriteBundleGz(dir, base string) (string, error) {
	return st.writeBundle(dir, base, true)
}

// writeBundle writes the three bundle files under dir, gzipping the .prv
// body when gz is set. Close errors are propagated: a short write that
// only surfaces at close (e.g. a full disk) fails the bundle.
func (st *StreamTrace) writeBundle(dir, base string, gz bool) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	write := func(ext string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, base+ext))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	prvExt := ".prv"
	writePRV := st.WritePRV
	if gz {
		prvExt = ".prv.gz"
		writePRV = func(w io.Writer) error {
			zw, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
			if err != nil {
				return err
			}
			if err := st.WritePRV(zw); err != nil {
				zw.Close()
				return err
			}
			return zw.Close()
		}
	}
	if err := write(prvExt, writePRV); err != nil {
		return "", err
	}
	if err := write(".pcf", st.WritePCF); err != nil {
		return "", err
	}
	if err := write(".row", st.WriteROW); err != nil {
		return "", err
	}
	return filepath.Join(dir, base+prvExt), nil
}
