// Package mem models the accelerator's memory system: the external DRAM
// behind the Avalon bus (512-bit data path, banked, fixed access latency,
// one request accepted per cycle), per-thread local BRAM, and the burst
// preloader from the paper's architecture template. Requests are accepted
// in FIFO order, which defines the global memory order; data is mutated at
// accept time so that program-order and lock-protected accesses behave like
// hardware.
package mem

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// WordBytes is the byte size of one memory word (32-bit words everywhere).
const WordBytes = 4

// Request is one memory transaction submitted by the datapath (or the
// profiling unit's flush engine).
type Request struct {
	Thread   int // issuing hardware thread; -1 for non-thread engines
	Write    bool
	WordAddr int64    // address in 32-bit words
	Words    int      // number of words transferred
	Data     []uint32 // payload for writes (len == Words)
	// OnComplete is invoked when the transaction's data has returned
	// (reads) or the write has been accepted (posted writes). For reads,
	// value holds the data; the slice is only valid for the duration of
	// the callback (the DRAM recycles read buffers), so callers must copy
	// anything they keep.
	OnComplete func(cycle int64, value []uint32)
}

// AccessListener observes accepted requests, exactly like the paper's
// memory performance counters snooping the Avalon interface ("we decided to
// place the memory performance counters in the central Avalon interface and
// evaluate the memory requests coming from the operators").
type AccessListener func(cycle int64, thread int, bytes int, write bool)

// DRAMConfig configures the external memory model.
type DRAMConfig struct {
	// LatencyCycles is the request->data latency of the DRAM+controller.
	LatencyCycles int
	// BeatBytes is the bus width in bytes (512-bit = 64 bytes).
	BeatBytes int
	// Banks is the number of interleaved DDR banks (D5005: 4 DDR4 banks).
	Banks int
	// BankRecovery is extra cycles a bank is busy after a transaction.
	BankRecovery int
	// MaxPending bounds the transactions in flight (accepted but without
	// returned data), like an Avalon interconnect's maximum-pending-reads
	// limit. The arbiter stalls accepts at the bound; this is what makes
	// thread counts beyond ~MaxPending add congestion instead of speed
	// (§V-A). Zero means unlimited.
	MaxPending int
	// Words is the total capacity in 32-bit words.
	Words int
}

// DefaultDRAMConfig returns a model of the paper's board: ~60-cycle access
// latency at the accelerator clock, 64-byte bus beats, 4 banks.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		LatencyCycles: 60,
		BeatBytes:     64,
		Banks:         4,
		BankRecovery:  2,
		MaxPending:    8,
		Words:         1 << 24, // 64 MiB
	}
}

// WithDefaults returns c with its zero fields filled. A non-positive
// capacity means no DRAM was described at all, so the whole default
// board; otherwise a non-positive bus width is 64 bytes and a
// non-positive bank count 1. It is the DRAM's one zero-value rule: the
// model and every static model of it read the configuration through it.
func (c DRAMConfig) WithDefaults() DRAMConfig {
	if c.Words <= 0 {
		return DefaultDRAMConfig()
	}
	if c.BeatBytes <= 0 {
		c.BeatBytes = 64
	}
	if c.Banks <= 0 {
		c.Banks = 1
	}
	return c
}

// DRAMStats aggregates traffic counters.
type DRAMStats struct {
	Transactions    int64
	ReadWordsMoved  int64
	WriteWordsMoved int64
	BusBeats        int64
	// ThreadTransactions / ThreadWordsMoved count only datapath traffic
	// (requests from hardware threads, excluding e.g. the profiling
	// unit's flush engine), for access-granularity analysis.
	ThreadTransactions int64
	ThreadWordsMoved   int64
	// QueuePeak is the maximum arbiter queue occupancy observed.
	QueuePeak int
}

type completion struct {
	cycle int64
	req   *Request
	value []uint32
	seq   int64
}

// before orders completions by (cycle, seq): the order they are delivered in.
func (c *completion) before(o *completion) bool {
	return c.cycle < o.cycle || (c.cycle == o.cycle && c.seq < o.seq)
}

// fifo is a growable ring of completions, oldest first. Zero-valued it is
// empty; it grows by doubling and reuses its storage, so a steady stream
// of transactions allocates nothing.
type fifo struct {
	buf  []completion // len is zero or a power of two
	head int
	n    int
}

func (q *fifo) push(c completion) {
	if q.n == len(q.buf) {
		buf := make([]completion, max(8, 2*len(q.buf)))
		for i := range q.n {
			buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = c
	q.n++
}

// front is the oldest completion; the queue must not be empty.
func (q *fifo) front() *completion { return &q.buf[q.head] }

func (q *fifo) pop() completion {
	c := q.buf[q.head]
	q.buf[q.head] = completion{} // drop req/value references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return c
}

// DRAM is the external memory model.
type DRAM struct {
	cfg DRAMConfig
	// words backs [0, len(words)) of the cfg.Words-word address space.
	// Everything above has never been written: it reads as zero, and a
	// write there grows the backing first. cfg.Words stays the capacity
	// every bounds check uses.
	words []uint32

	queue   []*Request
	qhead   int
	busFree int64
	// bankFree is each interleaved bank's recovery deadline: the cycle
	// from which it can start another transfer.
	bankFree []int64

	// reads and writes hold the accepted transactions in completion order
	// (see Tick): both are FIFOs, merged by (cycle, seq) on delivery.
	reads, writes fifo
	seq           int64
	inFlight      int
	valuePool     [][]uint32
	// beatShift/bankMask are the power-of-two fast path for the
	// per-request beat count and bank index (-1 disables it).
	beatShift int
	bankMask  int
	// nextComp caches the earliest completion cycle (MaxInt64 when none),
	// so the per-cycle Tick fast path is one compare.
	nextComp int64

	listeners []AccessListener
	stats     DRAMStats
}

// wordSlabPool recycles DRAM backing storage across simulations. Slabs are
// sized to what their run touched (a DIM=64 GEMM: 512 KiB of the 64 MiB
// address space) and are all zero when they enter the pool, so reuse is
// clean.
var wordSlabPool sync.Pool

// NewDRAM creates the external memory.
func NewDRAM(cfg DRAMConfig) *DRAM {
	cfg = cfg.WithDefaults()
	d := &DRAM{
		cfg:       cfg,
		bankFree:  make([]int64, cfg.Banks),
		nextComp:  math.MaxInt64,
		beatShift: -1,
		bankMask:  -1,
	}
	if cfg.BeatBytes&(cfg.BeatBytes-1) == 0 {
		d.beatShift = bits.TrailingZeros(uint(cfg.BeatBytes))
	}
	if cfg.Banks&(cfg.Banks-1) == 0 {
		d.bankMask = cfg.Banks - 1
	}
	return d
}

// Reserve backs [0, words) (clipped to the capacity), so that writes below
// it need not grow the store: the simulator reserves the footprint of its
// map clauses before the run.
func (d *DRAM) Reserve(words int64) {
	if words = min(words, int64(d.cfg.Words)); words > int64(len(d.words)) {
		d.grow(words)
	}
}

// grow re-backs the store to at least end words (0 < end <= cfg.Words):
// the next power of two, so a run grows a handful of times at most, from
// a pooled slab when one is large enough. Only the backed prefix of a slab
// is ever written, so that is all a slab needs zeroed to be reused.
func (d *DRAM) grow(end int64) {
	n := min(1<<bits.Len64(uint64(end-1)), d.cfg.Words)
	old := d.words
	if cap(old) >= n {
		d.words = old[:n]
		return
	}
	if s, ok := wordSlabPool.Get().(*[]uint32); ok && cap(*s) >= n {
		d.words = (*s)[:n]
	} else {
		d.words = make([]uint32, n)
	}
	copy(d.words, old)
	putSlab(old)
}

// putSlab zeroes a slab and hands it to the pool.
func putSlab(words []uint32) {
	if words != nil {
		clear(words)
		wordSlabPool.Put(&words)
	}
}

// Release returns the word slab to the recycle pool. Call once when the
// simulation owning this DRAM has fully completed; the DRAM must not be
// used afterwards.
func (d *DRAM) Release() {
	putSlab(d.words)
	d.words = nil
}

// store copies data to [addr, addr+len(data)), which the caller has
// checked against the capacity.
func (d *DRAM) store(addr int64, data []uint32) {
	end := addr + int64(len(data))
	if end > int64(len(d.words)) {
		d.grow(end)
	}
	copy(d.words[addr:], data)
}

// load fills dst from [addr, addr+len(dst)), zeros above the backing.
func (d *DRAM) load(dst []uint32, addr int64) {
	n := 0
	if addr < int64(len(d.words)) {
		n = copy(dst, d.words[addr:])
	}
	clear(dst[n:])
}

// Config returns the active configuration.
func (d *DRAM) Config() DRAMConfig { return d.cfg }

// Stats returns a copy of the traffic counters.
func (d *DRAM) Stats() DRAMStats { return d.stats }

// AddListener registers a snoop on accepted requests.
func (d *DRAM) AddListener(l AccessListener) { d.listeners = append(d.listeners, l) }

// Submit enqueues a request. The queue is unbounded; callers bound
// outstanding requests through their port model (one read and one write
// port per thread, as in the paper).
func (d *DRAM) Submit(r *Request) error {
	if r.Words <= 0 {
		return fmt.Errorf("mem: request with %d words", r.Words)
	}
	if r.WordAddr < 0 || r.WordAddr+int64(r.Words) > int64(d.cfg.Words) {
		return fmt.Errorf("mem: request [%d,%d) outside capacity %d words",
			r.WordAddr, r.WordAddr+int64(r.Words), d.cfg.Words)
	}
	if r.Write && len(r.Data) != r.Words {
		return fmt.Errorf("mem: write of %d words with %d data words", r.Words, len(r.Data))
	}
	d.queue = append(d.queue, r)
	if n := len(d.queue) - d.qhead; n > d.stats.QueuePeak {
		d.stats.QueuePeak = n
	}
	return nil
}

// Pending reports whether Tick(cycle) would do any work: a completion is
// due or a request is queued. It is small enough to inline, so per-cycle
// callers can skip the Tick call entirely on idle cycles.
func (d *DRAM) Pending(cycle int64) bool {
	return d.nextComp <= cycle || d.qhead < len(d.queue)
}

// Tick advances the memory one cycle: accepts at most one queued request
// (if the pending window allows) and delivers due completions. Successive
// calls must never pass a smaller cycle.
//
// Completions leave in accept order within each direction, which is why
// two FIFOs replace a priority queue. A read completes at its dataReady,
// which starts no earlier than the bus frees, i.e. than the previous
// transaction's dataReady, and lasts at least one beat: read completions
// strictly increase in accept order. A posted write completes one cycle
// after its accept, and accept cycles never decrease because Tick's cycle
// never does. Merging the two FIFO heads by (cycle, seq) therefore
// delivers exactly in (cycle, seq) order.
func (d *DRAM) Tick(cycle int64) {
	if d.nextComp <= cycle {
		d.deliver(cycle)
	}
	if d.qhead < len(d.queue) {
		d.acceptNext(cycle)
	}
}

// deliver fires every completion due at or before cycle, in (cycle, seq)
// order, and recomputes the nextComp cache.
func (d *DRAM) deliver(cycle int64) {
	for {
		q := &d.reads
		if d.writes.n > 0 && (q.n == 0 || d.writes.front().before(q.front())) {
			q = &d.writes
		}
		if q.n == 0 {
			d.nextComp = math.MaxInt64
			return
		}
		if at := q.front().cycle; at > cycle {
			d.nextComp = at
			return
		}
		c := q.pop()
		d.inFlight--
		if c.req.OnComplete != nil {
			c.req.OnComplete(c.cycle, c.value)
		}
		if c.value != nil {
			d.valuePool = append(d.valuePool, c.value)
		}
	}
}

// acceptNext pops the queue head into accept if the pending window allows.
func (d *DRAM) acceptNext(cycle int64) {
	if d.cfg.MaxPending > 0 && d.inFlight >= d.cfg.MaxPending {
		return
	}
	r := d.queue[d.qhead]
	d.queue[d.qhead] = nil
	d.qhead++
	if d.qhead == len(d.queue) {
		// Drained: rewind so the backing array is reused, not regrown.
		d.queue = d.queue[:0]
		d.qhead = 0
	}
	d.accept(cycle, r)
}

func (d *DRAM) accept(cycle int64, r *Request) {
	bytes := r.Words * WordBytes
	var beats, bank int
	if d.beatShift >= 0 && d.bankMask >= 0 {
		beats = (bytes + d.cfg.BeatBytes - 1) >> d.beatShift
		bank = int(r.WordAddr*WordBytes>>d.beatShift) & d.bankMask
	} else {
		beats = (bytes + d.cfg.BeatBytes - 1) / d.cfg.BeatBytes
		bank = int((r.WordAddr * WordBytes / int64(d.cfg.BeatBytes))) % d.cfg.Banks
	}

	d.stats.Transactions++
	d.stats.BusBeats += int64(beats)
	if r.Thread >= 0 {
		d.stats.ThreadTransactions++
		d.stats.ThreadWordsMoved += int64(r.Words)
	}
	for _, l := range d.listeners {
		l(cycle, r.Thread, bytes, r.Write)
	}

	// Memory order = accept order: mutate/read data now.
	var value []uint32
	if r.Write {
		d.store(r.WordAddr, r.Data)
		d.stats.WriteWordsMoved += int64(r.Words)
	} else {
		value = d.getValueBuf(r.Words)
		d.load(value, r.WordAddr)
		d.stats.ReadWordsMoved += int64(r.Words)
	}

	start := cycle + int64(d.cfg.LatencyCycles)
	if d.busFree > start {
		start = d.busFree
	}
	if f := d.bankFree[bank]; f > start {
		start = f
	}
	dataReady := start + int64(beats)
	d.busFree = dataReady
	d.bankFree[bank] = dataReady + int64(d.cfg.BankRecovery)

	d.seq++
	d.inFlight++
	done := dataReady
	if r.Write {
		// Posted write: the datapath's store completes at acceptance.
		done = cycle + 1
		d.writes.push(completion{cycle: done, req: r, seq: d.seq})
	} else {
		d.reads.push(completion{cycle: done, req: r, value: value, seq: d.seq})
	}
	if done < d.nextComp {
		d.nextComp = done
	}
}

// getValueBuf takes a read buffer from the recycle pool, or allocates one.
func (d *DRAM) getValueBuf(words int) []uint32 {
	if n := len(d.valuePool); n > 0 {
		buf := d.valuePool[n-1]
		d.valuePool = d.valuePool[:n-1]
		if cap(buf) >= words {
			return buf[:words]
		}
	}
	return make([]uint32, words)
}

// Busy reports whether requests are queued or in flight.
func (d *DRAM) Busy() bool { return d.qhead < len(d.queue) || d.inFlight > 0 }

// NextEventCycle returns the earliest cycle at which something happens
// (a queued accept next cycle, or the first completion), or -1 if idle.
// The simulator uses it to skip dead cycles.
func (d *DRAM) NextEventCycle(now int64) int64 {
	next := int64(-1)
	if d.qhead < len(d.queue) {
		next = now + 1
	}
	if d.inFlight > 0 && (next < 0 || d.nextComp < next) {
		next = d.nextComp
	}
	return next
}

// --- Direct (untimed) host access for map transfers and test setup ---

// WriteWords copies data into memory directly (host DMA outside the
// simulated accelerator timeline).
func (d *DRAM) WriteWords(wordAddr int64, data []uint32) error {
	if wordAddr < 0 || wordAddr+int64(len(data)) > int64(d.cfg.Words) {
		return fmt.Errorf("mem: host write [%d,%d) out of range", wordAddr, wordAddr+int64(len(data)))
	}
	d.store(wordAddr, data)
	return nil
}

// ReadWords copies memory contents out directly.
func (d *DRAM) ReadWords(wordAddr int64, n int) ([]uint32, error) {
	if wordAddr < 0 || wordAddr+int64(n) > int64(d.cfg.Words) {
		return nil, fmt.Errorf("mem: host read [%d,%d) out of range", wordAddr, wordAddr+int64(n))
	}
	out := make([]uint32, n)
	d.load(out, wordAddr)
	return out, nil
}

// Float helpers for host buffers.

// FloatsToWords converts float32 data to raw words.
func FloatsToWords(fs []float32) []uint32 {
	out := make([]uint32, len(fs))
	for i, f := range fs {
		out[i] = math.Float32bits(f)
	}
	return out
}

// WordsToFloats converts raw words to float32 data.
func WordsToFloats(ws []uint32) []float32 {
	out := make([]float32, len(ws))
	for i, w := range ws {
		out[i] = math.Float32frombits(w)
	}
	return out
}

// IntsToWords converts int32 data to raw words.
func IntsToWords(is []int32) []uint32 {
	out := make([]uint32, len(is))
	for i, v := range is {
		out[i] = uint32(v)
	}
	return out
}

// WordsToInts converts raw words to int32 data.
func WordsToInts(ws []uint32) []int32 {
	out := make([]int32, len(ws))
	for i, w := range ws {
		out[i] = int32(w)
	}
	return out
}
