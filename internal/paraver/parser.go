package paraver

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// ScanPRV reads a .prv stream record by record, checking the trace
// invariants and calling the visitor for each one; grouped event lines
// (2:...:type:value:type:value) are delivered as one Event call per
// type/value pair. It accepts the subset this package writes — state and
// event records of one application's one task, thread i on cpu i+1 — and
// holds only the current line in memory, so traces larger than RAM stream
// through in one pass with no per-record allocations.
func ScanPRV(r io.Reader, v Visitor) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("paraver: empty trace")
	}
	hdr, err := parseHeader(string(sc.Bytes()))
	if err != nil {
		return fmt.Errorf("paraver: line 1: %v", err)
	}
	if err := v.Header(hdr); err != nil {
		return err
	}
	c := newChecker(hdr)
	fields := make([]int64, 0, 16)
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		fields, err = parseIntFields(line, fields[:0])
		if err != nil {
			return fmt.Errorf("paraver: line %d: %v", lineNo, err)
		}
		switch {
		case fields[0] == 1 && len(fields) != 8:
			return fmt.Errorf("paraver: line %d: state record needs 8 fields, got %d", lineNo, len(fields))
		case fields[0] == 2 && (len(fields) < 8 || (len(fields)-6)%2 != 0):
			return fmt.Errorf("paraver: line %d: malformed event record", lineNo)
		case fields[0] != 1 && fields[0] != 2:
			return fmt.Errorf("paraver: line %d: unknown record type %d", lineNo, fields[0])
		case fields[2] != 1:
			return fmt.Errorf("paraver: line %d: record of application %d in a one-application trace", lineNo, fields[2])
		case fields[3] != 1:
			return fmt.Errorf("paraver: line %d: record of task %d in a one-task trace", lineNo, fields[3])
		}
		thread := int(fields[4]) - 1
		if fields[0] == 1 {
			s := StateRec{Thread: thread, Begin: fields[5], End: fields[6], State: int(fields[7])}
			if err = c.state(&s); err == nil {
				if err = checkCPU(fields[1], thread); err == nil {
					err = v.State(s)
				}
			}
		} else {
			time := fields[5]
			if err = c.event(thread, time); err == nil {
				err = checkCPU(fields[1], thread)
			}
			for i := 6; i+1 < len(fields) && err == nil; i += 2 {
				err = v.Event(EventRec{Thread: thread, Time: time, Type: int(fields[i]), Value: fields[i+1]})
			}
		}
		if err != nil {
			return fmt.Errorf("paraver: line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// checkCPU holds a record to the one placement this package writes:
// thread i runs on cpu i+1.
func checkCPU(cpu int64, thread int) error {
	if cpu != int64(thread)+1 {
		return fmt.Errorf("record of thread %d on cpu %d, want cpu %d", thread, cpu, thread+1)
	}
	return nil
}

// OpenPRV opens a .prv or .prv.gz trace for reading, transparently
// decompressing by file suffix. Closing the returned reader closes the
// underlying file.
func OpenPRV(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &gzReadCloser{zr: zr, f: f}, nil
}

type gzReadCloser struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzReadCloser) Read(p []byte) (int, error) { return g.zr.Read(p) }

func (g *gzReadCloser) Close() error {
	err := g.zr.Close()
	if cerr := g.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Caps on the header of a file from outside. Every scan sizes per-thread
// state from the thread count, so an absurd count must fail here instead
// of reaching an allocation (real bundles carry eight threads); and times
// up to 2^53 cycles (years of simulated time) convert to float64 exactly
// and leave visitors ten bits of headroom to scale them without overflow.
const (
	maxThreads = 1 << 16
	maxEndTime = 1 << 53
)

// parseHeader decodes "#Paraver (...):endTime:1(N):1:1(N:1)", the header
// of one application of one task with N threads.
func parseHeader(h string) (Header, error) {
	if !strings.HasPrefix(h, "#Paraver") {
		return Header{}, fmt.Errorf("missing #Paraver header")
	}
	close := strings.Index(h, ")")
	if close < 0 || close+2 > len(h) {
		return Header{}, fmt.Errorf("malformed header %q", h)
	}
	rest := h[close+2:] // skip "):"
	parts := strings.SplitN(rest, ":", 4)
	if len(parts) < 4 {
		return Header{}, fmt.Errorf("header needs endTime:nodes:nAppl:appl, got %q", rest)
	}
	endTime, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil || endTime < 0 || endTime > maxEndTime {
		return Header{}, fmt.Errorf("bad end time %q in header %q", parts[0], h)
	}
	appl := parts[3]
	nStr, one := strings.CutPrefix(appl, "1(")
	nStr, node := strings.CutSuffix(nStr, ":1)")
	n, err := strconv.Atoi(nStr)
	if !one || !node || err != nil || n <= 0 {
		return Header{}, fmt.Errorf("application list %q is not one task of N threads, 1(N:1)", appl)
	}
	if n > maxThreads {
		return Header{}, fmt.Errorf("header %q declares %d threads, more than %d", h, n, maxThreads)
	}
	return Header{NumThreads: n, EndTime: endTime}, nil
}

// parseIntFields decodes a colon-separated all-integer record line into
// buf without allocating.
func parseIntFields(line []byte, buf []int64) ([]int64, error) {
	for i := 0; ; i++ { // each pass decodes one field and steps over its ':'
		neg := i < len(line) && line[i] == '-'
		if neg {
			i++
		}
		start := i
		var n int64
		for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
			if n > math.MaxInt64/10 || (n == math.MaxInt64/10 && line[i] > '7') {
				return nil, fmt.Errorf("integer field overflows int64 in %q", line)
			}
			n = n*10 + int64(line[i]-'0')
		}
		switch {
		case i < len(line) && line[i] != ':':
			return nil, fmt.Errorf("bad integer field in %q", line)
		case i == start:
			return nil, fmt.Errorf("empty integer field")
		}
		if neg {
			n = -n
		}
		buf = append(buf, n)
		if i == len(line) {
			return buf, nil
		}
	}
}
