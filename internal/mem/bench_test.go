package mem

import "testing"

// BenchmarkDRAMTick drives the DRAM with a steady read stream striped
// across all banks, measuring the accept/deliver hot path (bank timing,
// push onto the read FIFO, the read/write head merge on delivery).
func BenchmarkDRAMTick(b *testing.B) {
	cfg := DefaultDRAMConfig()
	cfg.MaxPending = 64
	d := NewDRAM(cfg)
	beatWords := int64(cfg.BeatBytes / WordBytes)
	cycle := int64(0)
	inflight := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep the pipe full: one new request per free slot, striped so
		// consecutive requests land in different banks.
		for inflight < cfg.MaxPending {
			addr := (int64(i) + int64(inflight)) * beatWords % int64(cfg.Words-16)
			err := d.Submit(&Request{
				Thread:   0,
				WordAddr: addr,
				Words:    16,
				OnComplete: func(c int64, v []uint32) {
					inflight--
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			inflight++
		}
		cycle++
		if d.Pending(cycle) {
			d.Tick(cycle)
		}
	}
}
