package mem

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// heapDRAM is the delivery model the two completion FIFOs replaced, kept as
// their oracle: every accepted transaction goes into its bank's completion
// min-heap keyed by (cycle, seq), and delivery repeatedly takes the
// smallest top across the banks. Accept timing, counters and the data path
// are DRAM's; only the completion bookkeeping differs.
type heapDRAM struct {
	cfg      DRAMConfig
	words    []uint32
	queue    []*Request
	busFree  int64
	free     []int64
	heaps    [][]completion
	seq      int64
	inFlight int
	stats    DRAMStats
}

func newHeapDRAM(cfg DRAMConfig) *heapDRAM {
	return &heapDRAM{
		cfg:   cfg,
		words: make([]uint32, cfg.Words),
		free:  make([]int64, cfg.Banks),
		heaps: make([][]completion, cfg.Banks),
	}
}

func (d *heapDRAM) submit(r *Request) {
	d.queue = append(d.queue, r)
	d.stats.QueuePeak = max(d.stats.QueuePeak, len(d.queue))
}

func (d *heapDRAM) busy() bool { return len(d.queue) > 0 || d.inFlight > 0 }

// minBank is the bank whose top completion is earliest by (cycle, seq), or
// -1 when every heap is empty.
func (d *heapDRAM) minBank() int {
	bi := -1
	for i, h := range d.heaps {
		if len(h) > 0 && (bi < 0 || h[0].before(&d.heaps[bi][0])) {
			bi = i
		}
	}
	return bi
}

func (d *heapDRAM) nextEventCycle(now int64) int64 {
	next := int64(-1)
	if len(d.queue) > 0 {
		next = now + 1
	}
	if bi := d.minBank(); bi >= 0 && (next < 0 || d.heaps[bi][0].cycle < next) {
		next = d.heaps[bi][0].cycle
	}
	return next
}

func (d *heapDRAM) tick(cycle int64) {
	for {
		bi := d.minBank()
		if bi < 0 || d.heaps[bi][0].cycle > cycle {
			break
		}
		c := heapPop(&d.heaps[bi])
		d.inFlight--
		c.req.OnComplete(c.cycle, c.value)
	}
	if len(d.queue) == 0 || (d.cfg.MaxPending > 0 && d.inFlight >= d.cfg.MaxPending) {
		return
	}
	r := d.queue[0]
	d.queue = d.queue[1:]
	bytes := r.Words * WordBytes
	beats := (bytes + d.cfg.BeatBytes - 1) / d.cfg.BeatBytes
	bank := int(r.WordAddr*WordBytes/int64(d.cfg.BeatBytes)) % d.cfg.Banks
	d.stats.Transactions++
	d.stats.BusBeats += int64(beats)
	if r.Thread >= 0 {
		d.stats.ThreadTransactions++
		d.stats.ThreadWordsMoved += int64(r.Words)
	}
	var value []uint32
	if r.Write {
		copy(d.words[r.WordAddr:], r.Data)
		d.stats.WriteWordsMoved += int64(r.Words)
	} else {
		value = append([]uint32(nil), d.words[r.WordAddr:r.WordAddr+int64(r.Words)]...)
		d.stats.ReadWordsMoved += int64(r.Words)
	}
	start := max(cycle+int64(d.cfg.LatencyCycles), d.busFree, d.free[bank])
	dataReady := start + int64(beats)
	d.busFree = dataReady
	d.free[bank] = dataReady + int64(d.cfg.BankRecovery)
	done := dataReady
	if r.Write {
		done = cycle + 1
	}
	d.seq++
	d.inFlight++
	heapPush(&d.heaps[bank], completion{cycle: done, req: r, value: value, seq: d.seq})
}

func heapPush(hp *[]completion, c completion) {
	h := append(*hp, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*hp = h
}

func heapPop(hp *[]completion) completion {
	h := *hp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(&h[l]) {
			l = r
		}
		if !h[l].before(&h[i]) {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	*hp = h
	return top
}

// delivery is one observed completion: the Tick cycle that fired it, the
// completion cycle it reported, the request's index in the stream, and
// the data a read returned.
type delivery struct {
	tick, cycle int64
	req         int
	value       string
}

// orderStream drives one seeded random request stream through a DRAM and
// its heap oracle in lockstep: each Tick submits up to three requests
// (reads and writes mixed, some from the flush engine's thread -1), and
// the Tick cycle advances by one to three, never backwards. It returns ""
// when delivery order, reported cycles, read data, event horizon and Stats
// agree, else the first difference.
func orderStream(seed uint64, cfg DRAMConfig, ticks int) string {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	d, o := NewDRAM(cfg), newHeapDRAM(cfg)
	var got, want []delivery
	tick := int64(0)
	record := func(log *[]delivery, id int) func(int64, []uint32) {
		return func(c int64, v []uint32) {
			*log = append(*log, delivery{tick, c, id, fmt.Sprint(v)})
		}
	}
	id := 0
	for range ticks {
		for range rng.IntN(4) {
			words := 1 + rng.IntN(3*cfg.BeatBytes/WordBytes)
			if rng.IntN(4) == 0 {
				words = 1
			}
			addr := rng.Int64N(int64(cfg.Words - words))
			thread := rng.IntN(9) - 1
			var data []uint32
			write := rng.IntN(2) == 0
			if write {
				data = make([]uint32, words)
				for i := range data {
					data[i] = rng.Uint32()
				}
			}
			mk := func(log *[]delivery) *Request {
				return &Request{Thread: thread, Write: write, WordAddr: addr, Words: words,
					Data: data, OnComplete: record(log, id)}
			}
			if err := d.Submit(mk(&got)); err != nil {
				return err.Error()
			}
			o.submit(mk(&want))
			id++
		}
		d.Tick(tick)
		o.tick(tick)
		if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
			return fmt.Sprintf("tick %d: %d delivered, heap oracle %d", tick, len(got), len(want))
		}
		if g, w := d.NextEventCycle(tick), o.nextEventCycle(tick); g != w || d.Busy() != o.busy() {
			return fmt.Sprintf("tick %d: next event %d busy %v, heap oracle %d %v", tick, g, d.Busy(), w, o.busy())
		}
		if rng.IntN(4) == 0 {
			tick += int64(rng.IntN(3)) // the engine skips idle cycles
		}
		tick++
	}
	for d.Busy() || o.busy() {
		d.Tick(tick)
		o.tick(tick)
		tick++
	}
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				return fmt.Sprintf("delivery %d: %+v, heap oracle %+v", i, got[i], want[i])
			}
		}
		return fmt.Sprintf("%d delivered, heap oracle %d", len(got), len(want))
	}
	if d.Stats() != o.stats {
		return fmt.Sprintf("stats %+v, heap oracle %+v", d.Stats(), o.stats)
	}
	return ""
}

// orderConfig maps five selector values onto the configuration grid the
// order oracle covers.
func orderConfig(banks, beat, recovery, pending, latency uint8) DRAMConfig {
	return DRAMConfig{
		Banks:         []int{1, 3, 4}[int(banks)%3],
		BeatBytes:     []int{32, 48, 64}[int(beat)%3],
		BankRecovery:  int(recovery) % 9,
		MaxPending:    []int{0, 1, 8}[int(pending)%3],
		LatencyCycles: []int{0, 60}[int(latency)%2],
		Words:         1 << 12,
	}
}

// TestDRAMOrderMatchesHeapOracle checks the in-order completion argument
// of Tick on every point of the configuration grid: the FIFO model must
// deliver what the per-bank heaps delivered, at the same Tick, in the same
// order, with the same data and counters.
func TestDRAMOrderMatchesHeapOracle(t *testing.T) {
	n := 0
	for banks := range uint8(3) {
		for beat := range uint8(3) {
			for _, rec := range []uint8{0, 2, 8} {
				for pend := range uint8(3) {
					for lat := range uint8(2) {
						cfg := orderConfig(banks, beat, rec, pend, lat)
						seed := uint64(n)
						if msg := orderStream(seed, cfg, 400); msg != "" {
							t.Fatalf("seed %d %+v: %s", seed, cfg, msg)
						}
						n++
					}
				}
			}
		}
	}
}

// FuzzDRAMOrder runs the order oracle on arbitrary seeds and grid points.
func FuzzDRAMOrder(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(2), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(7), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(9), uint8(0), uint8(0), uint8(8), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, banks, beat, recovery, pending, latency uint8) {
		cfg := orderConfig(banks, beat, recovery, pending, latency)
		if msg := orderStream(seed, cfg, 200); msg != "" {
			t.Fatalf("%+v: %s", cfg, msg)
		}
	})
}
