package mem

import "fmt"

// BRAM is one per-thread on-chip memory. Access latency is fixed and short;
// each BRAM has a single port, so two accesses in the same cycle serialize
// (the second stalls one cycle — resource arbitration, the paper's second
// stall cause).
type BRAM struct {
	words    []uint32
	latency  int
	portFree int64

	// Stats.
	Reads      int64
	Writes     int64
	PortStalls int64
	WordsMoved int64
}

// NewBRAM creates a local memory of n words with the given access latency.
func NewBRAM(n, latency int) *BRAM {
	if latency < 1 {
		latency = 1
	}
	return &BRAM{words: make([]uint32, n), latency: latency}
}

// Size returns the capacity in words.
func (b *BRAM) Size() int { return len(b.words) }

// Access performs a read or write issued at the given cycle and returns the
// completion cycle and, for reads, the data. Port conflicts push the access
// back; the extra cycles surface as pipeline stalls upstream.
func (b *BRAM) Access(cycle int64, write bool, wordAddr int64, words int, data []uint32) (int64, []uint32, error) {
	if wordAddr < 0 || wordAddr+int64(words) > int64(len(b.words)) {
		return 0, nil, fmt.Errorf("mem: BRAM access [%d,%d) outside %d words",
			wordAddr, wordAddr+int64(words), len(b.words))
	}
	start := cycle
	if b.portFree > start {
		b.PortStalls += b.portFree - start
		start = b.portFree
	}
	b.portFree = start + 1
	b.WordsMoved += int64(words)
	if write {
		if len(data) != words {
			return 0, nil, fmt.Errorf("mem: BRAM write of %d words with %d data", words, len(data))
		}
		copy(b.words[wordAddr:], data)
		b.Writes++
		return start + int64(b.latency), nil, nil
	}
	out := make([]uint32, words)
	copy(out, b.words[wordAddr:])
	b.Reads++
	return start + int64(b.latency), out, nil
}

// ReadInto performs a timed read like Access but copies into the caller's
// buffer (len(dst) words), avoiding the per-read allocation on hot paths.
func (b *BRAM) ReadInto(cycle int64, wordAddr int64, dst []uint32) (int64, error) {
	words := len(dst)
	if wordAddr < 0 || wordAddr+int64(words) > int64(len(b.words)) {
		return 0, fmt.Errorf("mem: BRAM access [%d,%d) outside %d words",
			wordAddr, wordAddr+int64(words), len(b.words))
	}
	start := cycle
	if b.portFree > start {
		b.PortStalls += b.portFree - start
		start = b.portFree
	}
	b.portFree = start + 1
	b.WordsMoved += int64(words)
	copy(dst, b.words[wordAddr:])
	b.Reads++
	return start + int64(b.latency), nil
}
