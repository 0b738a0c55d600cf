package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func runUntilIdle(t *testing.T, d *DRAM, from int64, maxCycles int64) int64 {
	t.Helper()
	c := from
	for d.Busy() {
		d.Tick(c)
		c++
		if c-from > maxCycles {
			t.Fatalf("DRAM did not drain within %d cycles", maxCycles)
		}
	}
	return c
}

func TestDRAMReadWriteRoundTrip(t *testing.T) {
	d := NewDRAM(DRAMConfig{LatencyCycles: 10, BeatBytes: 64, Banks: 4, Words: 1024})
	var got []uint32
	w := &Request{Thread: 0, Write: true, WordAddr: 8, Words: 4, Data: []uint32{1, 2, 3, 4}}
	r := &Request{Thread: 0, WordAddr: 8, Words: 4, OnComplete: func(c int64, v []uint32) { got = append([]uint32(nil), v...) }}
	if err := d.Submit(w); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, d, 0, 1000)
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("read back %v", got)
	}
}

func TestDRAMLatency(t *testing.T) {
	d := NewDRAM(DRAMConfig{LatencyCycles: 20, BeatBytes: 64, Banks: 1, Words: 1024})
	var done int64 = -1
	r := &Request{Thread: 0, WordAddr: 0, Words: 1, OnComplete: func(c int64, v []uint32) { done = c }}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, d, 0, 1000)
	// Accept at cycle 0, data at 0+20+1 beat = 21.
	if done != 21 {
		t.Fatalf("read completed at %d, want 21", done)
	}
}

func TestDRAMPostedWriteCompletesEarly(t *testing.T) {
	d := NewDRAM(DRAMConfig{LatencyCycles: 50, BeatBytes: 64, Banks: 1, Words: 1024})
	var done int64 = -1
	w := &Request{Thread: 0, Write: true, WordAddr: 0, Words: 1,
		Data: []uint32{7}, OnComplete: func(c int64, v []uint32) { done = c }}
	if err := d.Submit(w); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, d, 0, 1000)
	if done != 1 {
		t.Fatalf("posted write completed at %d, want 1", done)
	}
}

func TestDRAMBandwidthLimit(t *testing.T) {
	// 64-byte requests back to back: data bus serializes one beat/cycle,
	// so N requests take ~N cycles after the first latency.
	d := NewDRAM(DRAMConfig{LatencyCycles: 10, BeatBytes: 64, Banks: 1, Words: 1 << 16})
	const n = 100
	var last int64
	for i := 0; i < n; i++ {
		addr := int64(i * 16)
		if err := d.Submit(&Request{Thread: 0, WordAddr: addr, Words: 16,
			OnComplete: func(c int64, v []uint32) { last = c }}); err != nil {
			t.Fatal(err)
		}
	}
	runUntilIdle(t, d, 0, 100000)
	// Lower bound: n beats of data; upper bound: accepts+latency+slack.
	if last < n {
		t.Fatalf("completed too fast: %d cycles for %d beats", last, n)
	}
	if last > n+int64(d.Config().LatencyCycles)+16 {
		t.Fatalf("completed too slow: %d", last)
	}
}

func TestDRAMNarrowVsWideUsefulBandwidth(t *testing.T) {
	// The same useful byte count fetched as scalar (4 B) requests must take
	// roughly 4x longer than as 16 B vector requests: each accept is one
	// bus beat regardless of size. This is the mechanism behind the
	// paper's Fig. 7 (vectorization improves achieved bandwidth).
	run := func(words int, reqs int) int64 {
		d := NewDRAM(DRAMConfig{LatencyCycles: 10, BeatBytes: 64, Banks: 1, Words: 1 << 16})
		var last int64
		for i := 0; i < reqs; i++ {
			if err := d.Submit(&Request{Thread: 0, WordAddr: int64(i * words), Words: words,
				OnComplete: func(c int64, v []uint32) { last = c }}); err != nil {
				t.Fatal(err)
			}
		}
		c := int64(0)
		for d.Busy() {
			d.Tick(c)
			c++
		}
		return last
	}
	scalar := run(1, 256) // 256 requests x 4B
	vector := run(4, 64)  // 64 requests x 16B, same useful bytes
	if scalar < 3*vector {
		t.Fatalf("scalar %d cycles vs vector %d: expected ~4x gap", scalar, vector)
	}
}

func TestDRAMListener(t *testing.T) {
	d := NewDRAM(DRAMConfig{LatencyCycles: 5, BeatBytes: 64, Banks: 1, Words: 1024})
	var events int
	var bytes int
	d.AddListener(func(c int64, thread int, b int, write bool) {
		events++
		bytes += b
	})
	_ = d.Submit(&Request{Thread: 2, WordAddr: 0, Words: 4})
	_ = d.Submit(&Request{Thread: 3, Write: true, WordAddr: 8, Words: 2, Data: []uint32{1, 2}})
	runUntilIdle(t, d, 0, 1000)
	if events != 2 {
		t.Fatalf("listener saw %d events, want 2", events)
	}
	if bytes != 4*4+2*4 {
		t.Fatalf("listener saw %d bytes, want 24", bytes)
	}
}

func TestDRAMBounds(t *testing.T) {
	d := NewDRAM(DRAMConfig{LatencyCycles: 5, Words: 64})
	if err := d.Submit(&Request{WordAddr: 63, Words: 2}); err == nil {
		t.Error("expected out-of-range error")
	}
	if err := d.Submit(&Request{WordAddr: -1, Words: 1}); err == nil {
		t.Error("expected negative-address error")
	}
	if err := d.Submit(&Request{WordAddr: 0, Words: 0}); err == nil {
		t.Error("expected zero-size error")
	}
	if err := d.Submit(&Request{Write: true, WordAddr: 0, Words: 2, Data: []uint32{1}}); err == nil {
		t.Error("expected data-size mismatch error")
	}
}

// Property: FIFO accept order defines memory order — a write followed by a
// read of the same location always observes the written value, for random
// addresses and payloads.
func TestDRAMMemoryOrderProperty(t *testing.T) {
	f := func(addr uint16, val uint32) bool {
		d := NewDRAM(DRAMConfig{LatencyCycles: 7, Words: 1 << 16})
		a := int64(addr)
		var got uint32
		okSubmit := d.Submit(&Request{Write: true, WordAddr: a, Words: 1, Data: []uint32{val}}) == nil
		okSubmit = okSubmit && d.Submit(&Request{WordAddr: a, Words: 1,
			OnComplete: func(c int64, v []uint32) { got = v[0] }}) == nil
		if !okSubmit {
			return false
		}
		c := int64(0)
		for d.Busy() {
			d.Tick(c)
			c++
		}
		return got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — bytes observed by the listener equal 4x the
// words moved in stats.
func TestDRAMConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		d := NewDRAM(DRAMConfig{LatencyCycles: 3, Words: 1 << 16})
		var listenerBytes int64
		d.AddListener(func(c int64, th, b int, w bool) { listenerBytes += int64(b) })
		var want int64
		for i, s := range sizes {
			words := int(s%16) + 1
			want += int64(words) * WordBytes
			if d.Submit(&Request{WordAddr: int64(i * 32), Words: words}) != nil {
				return false
			}
		}
		c := int64(0)
		for d.Busy() {
			d.Tick(c)
			c++
		}
		st := d.Stats()
		return listenerBytes == want && st.ReadWordsMoved*WordBytes == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// NextEventCycle drives the simulator's fast-forward jumps; its edges are
// load-bearing for cycle-exactness.
func TestDRAMNextEventCycle(t *testing.T) {
	d := NewDRAM(DRAMConfig{LatencyCycles: 10, BeatBytes: 64, Banks: 1, Words: 1024})
	if got := d.NextEventCycle(5); got != -1 {
		t.Errorf("idle DRAM: NextEventCycle = %d, want -1", got)
	}
	if err := d.Submit(&Request{Thread: 0, WordAddr: 0, Words: 1}); err != nil {
		t.Fatal(err)
	}
	// Queued but unaccepted: the accept happens on the next tick.
	if got := d.NextEventCycle(5); got != 6 {
		t.Errorf("queued request: NextEventCycle = %d, want 6", got)
	}
	d.Tick(6) // accept at cycle 6: data at 6+10 latency +1 beat = 17
	if got := d.NextEventCycle(6); got != 17 {
		t.Errorf("in-flight read: NextEventCycle = %d, want completion at 17", got)
	}
	// Queue AND completions: the earlier of the two wins.
	if err := d.Submit(&Request{Thread: 0, WordAddr: 4, Words: 1}); err != nil {
		t.Fatal(err)
	}
	if got := d.NextEventCycle(6); got != 7 {
		t.Errorf("queued+in-flight: NextEventCycle = %d, want 7", got)
	}
	for c := int64(7); d.Busy(); c++ {
		d.Tick(c)
	}
	if got := d.NextEventCycle(100); got != -1 {
		t.Errorf("drained DRAM: NextEventCycle = %d, want -1", got)
	}
}

func TestBRAMAccess(t *testing.T) {
	b := NewBRAM(64, 2)
	done, _, err := b.Access(10, true, 4, 2, []uint32{9, 8})
	if err != nil {
		t.Fatal(err)
	}
	if done != 12 {
		t.Errorf("write done at %d, want 12", done)
	}
	done, v, err := b.Access(12, false, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done != 14 || v[0] != 9 || v[1] != 8 {
		t.Errorf("read done=%d v=%v", done, v)
	}
}

func TestBRAMPortConflict(t *testing.T) {
	b := NewBRAM(64, 2)
	if _, _, err := b.Access(5, false, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	done, _, err := b.Access(5, false, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second same-cycle access is pushed back one cycle.
	if done != 8 {
		t.Errorf("conflicting access done at %d, want 8", done)
	}
	if b.PortStalls != 1 {
		t.Errorf("port stalls = %d, want 1", b.PortStalls)
	}
}

func TestBRAMBounds(t *testing.T) {
	b := NewBRAM(8, 1)
	if _, _, err := b.Access(0, false, 7, 2, nil); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestFloatWordConversions(t *testing.T) {
	fs := []float32{0, 1.5, -2.25, 3.14159}
	ws := FloatsToWords(fs)
	back := WordsToFloats(ws)
	for i := range fs {
		if back[i] != fs[i] {
			t.Errorf("float %v -> %v", fs[i], back[i])
		}
	}
	is := []int32{0, -1, 42, 1 << 30}
	iback := WordsToInts(IntsToWords(is))
	for i := range is {
		if iback[i] != is[i] {
			t.Errorf("int %v -> %v", is[i], iback[i])
		}
	}
}

// TestDRAMBacksOnlyWhatIsTouched: the store holds nothing until written,
// grows on a write past its backing, reads zeros everywhere else — through
// the host path and through a timed read into a recycled, dirty value
// buffer — and hands a clean slab to the next simulation.
func TestDRAMBacksOnlyWhatIsTouched(t *testing.T) {
	cfg := DefaultDRAMConfig() // 64 MiB of address space
	d := NewDRAM(cfg)
	if len(d.words) != 0 {
		t.Fatalf("a fresh DRAM backs %d words", len(d.words))
	}
	zeros, err := d.ReadWords(int64(cfg.Words)-8, 8)
	if err != nil || len(zeros) != 8 || zeros[0] != 0 || zeros[7] != 0 {
		t.Fatalf("untouched top of memory reads %v, %v", zeros, err)
	}
	if len(d.words) != 0 {
		t.Fatalf("a read backed %d words", len(d.words))
	}
	d.Reserve(70000)
	if len(d.words) < 70000 || len(d.words) > 1<<17 {
		t.Fatalf("Reserve(70000) backs %d words", len(d.words))
	}
	if err := d.WriteWords(100, []uint32{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	backed := len(d.words)

	// A timed write past the backing, then reads that straddle it and lie
	// wholly above it, all through one recycled value buffer.
	high := int64(backed) + 5000
	var reads [][]uint32
	keep := func(_ int64, v []uint32) { reads = append(reads, append([]uint32(nil), v...)) }
	for _, r := range []*Request{
		{WordAddr: 100, Words: 3, OnComplete: keep},
		{Write: true, WordAddr: high, Words: 2, Data: []uint32{41, 42}},
		{WordAddr: high, Words: 2, OnComplete: keep},
		{WordAddr: high + 1, Words: 3, OnComplete: keep},
		{WordAddr: int64(cfg.Words) - 3, Words: 3, OnComplete: keep},
	} {
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		runUntilIdle(t, d, 0, 1000)
	}
	want := [][]uint32{{7, 8, 9}, {41, 42}, {42, 0, 0}, {0, 0, 0}}
	if fmt.Sprint(reads) != fmt.Sprint(want) {
		t.Errorf("reads %v, want %v", reads, want)
	}
	if int64(len(d.words)) <= high || len(d.words) >= cfg.Words {
		t.Errorf("after a write at %d the store backs %d words", high, len(d.words))
	}
	if got, _ := d.ReadWords(100, 3); fmt.Sprint(got) != "[7 8 9]" {
		t.Errorf("growth lost earlier data: %v", got)
	}

	// The recycled slab is clean.
	d.Release()
	d2 := NewDRAM(cfg)
	d2.Reserve(high + 2)
	for _, addr := range []int64{100, high} {
		if got, _ := d2.ReadWords(addr, 3); fmt.Sprint(got) != "[0 0 0]" {
			t.Errorf("recycled slab reads %v at %d", got, addr)
		}
	}
}

// TestDRAMCapacityStillBounds: cfg.Words, not the backing, is what an
// access is checked against, with the messages the dense store gave.
func TestDRAMCapacityStillBounds(t *testing.T) {
	d := NewDRAM(DRAMConfig{LatencyCycles: 5, Words: 4096})
	for _, c := range []struct {
		err  error
		want string
	}{
		{d.Submit(&Request{WordAddr: 4090, Words: 8}), "mem: request [4090,4098) outside capacity 4096 words"},
		{d.Submit(&Request{Write: true, WordAddr: 4096, Words: 1, Data: []uint32{1}}), "mem: request [4096,4097) outside capacity 4096 words"},
		{d.Submit(&Request{WordAddr: -1, Words: 1}), "mem: request [-1,0) outside capacity 4096 words"},
		{d.WriteWords(4095, []uint32{1, 2}), "mem: host write [4095,4097) out of range"},
		{func() error { _, err := d.ReadWords(4000, 97); return err }(), "mem: host read [4000,4097) out of range"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("got %v, want %s", c.err, c.want)
		}
	}
	if err := d.WriteWords(4094, []uint32{1, 2}); err != nil {
		t.Errorf("write of the last two words: %v", err)
	}
	if len(d.words) != 4096 {
		t.Errorf("store backs %d words of a 4096-word memory", len(d.words))
	}
	d.Reserve(1 << 20)
	if len(d.words) != 4096 {
		t.Errorf("Reserve past the capacity backs %d words", len(d.words))
	}
}
