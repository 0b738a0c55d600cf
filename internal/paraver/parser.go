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
// type/value pair. It accepts the subset this package writes (state, event
// and communication records) and holds only the current line in memory, so
// traces larger than RAM stream through in one pass with no per-record
// allocations.
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
		return err
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
		switch fields[0] {
		case 1:
			if len(fields) != 8 {
				return fmt.Errorf("paraver: line %d: state record needs 8 fields, got %d", lineNo, len(fields))
			}
			s := StateRec{
				Task:   int(fields[3]) - 1,
				Thread: int(fields[4]) - 1,
				Begin:  fields[5],
				End:    fields[6],
				State:  int(fields[7]),
			}
			if err = c.state(&s); err == nil {
				err = v.State(s)
			}
		case 2:
			if len(fields) < 8 || (len(fields)-6)%2 != 0 {
				return fmt.Errorf("paraver: line %d: malformed event record", lineNo)
			}
			task := int(fields[3]) - 1
			thread := int(fields[4]) - 1
			time := fields[5]
			err = c.event(task, thread, time)
			for i := 6; i+1 < len(fields) && err == nil; i += 2 {
				err = v.Event(EventRec{
					Task: task, Thread: thread, Time: time,
					Type: int(fields[i]), Value: fields[i+1],
				})
			}
		case 3:
			if len(fields) != 15 {
				return fmt.Errorf("paraver: line %d: communication record needs 15 fields, got %d", lineNo, len(fields))
			}
			m := CommRec{
				SendTask:   int(fields[3]) - 1,
				SendThread: int(fields[4]) - 1,
				SendTime:   fields[5],
				RecvTask:   int(fields[9]) - 1,
				RecvThread: int(fields[10]) - 1,
				RecvTime:   fields[11],
				Size:       fields[13],
				Tag:        fields[14],
			}
			if err = c.comm(&m); err == nil {
				err = v.Comm(m)
			}
		default:
			return fmt.Errorf("paraver: line %d: unknown record type %d", lineNo, fields[0])
		}
		if err != nil {
			return fmt.Errorf("paraver: line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
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
// state from the task x thread product, so an absurd count must fail here
// instead of reaching an allocation (real bundles carry one task per FPGA
// and eight threads per task); and times up to 2^53 cycles (years of
// simulated time) convert to float64 exactly and leave visitors ten bits
// of headroom to scale them without overflow.
const (
	maxCPUs    = 1 << 16
	maxEndTime = 1 << 53
)

// parseHeader decodes "#Paraver (...):endTime:1(N):1:K(N:1,...)".
func parseHeader(h string) (Header, error) {
	if !strings.HasPrefix(h, "#Paraver") {
		return Header{}, fmt.Errorf("paraver: missing #Paraver header")
	}
	close := strings.Index(h, ")")
	if close < 0 || close+2 > len(h) {
		return Header{}, fmt.Errorf("paraver: malformed header %q", h)
	}
	rest := h[close+2:] // skip "):"
	parts := strings.SplitN(rest, ":", 4)
	if len(parts) < 4 {
		return Header{}, fmt.Errorf("paraver: header needs endTime:nodes:nAppl:appl, got %q", rest)
	}
	endTime, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil || endTime < 0 || endTime > maxEndTime {
		return Header{}, fmt.Errorf("paraver: bad end time %q in header %q", parts[0], h)
	}
	// Task and thread counts from the application list "K(N:1,N:1,...)".
	appl := parts[3]
	lp := strings.Index(appl, "(")
	rp := strings.Index(appl, ")")
	if lp < 0 || rp < lp {
		return Header{}, fmt.Errorf("paraver: malformed application list %q", appl)
	}
	tasks, err := strconv.Atoi(appl[:lp])
	if err != nil || tasks <= 0 {
		return Header{}, fmt.Errorf("paraver: bad task count in %q", appl)
	}
	nStr := strings.Split(appl[lp+1:rp], ",")[0]
	if c := strings.Index(nStr, ":"); c >= 0 {
		nStr = nStr[:c]
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		return Header{}, fmt.Errorf("paraver: bad thread count in %q", appl)
	}
	if tasks > maxCPUs || n > maxCPUs || tasks*n > maxCPUs {
		return Header{}, fmt.Errorf("paraver: header %q declares %d tasks x %d threads, more than %d", h, tasks, n, maxCPUs)
	}
	return Header{Tasks: tasks, NumThreads: n, EndTime: endTime}, nil
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
