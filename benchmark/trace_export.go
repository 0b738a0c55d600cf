package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"paravis/internal/core"
	"paravis/internal/paraver"
	"paravis/internal/paraver/analysis"
	"paravis/internal/sim"
	"paravis/internal/store"
	"paravis/internal/workloads"
)

var traceExport = workload{
	name: "trace_export",
	why:  "two finished runs, one state-heavy and one event-heavy, exported and read back through paraver, gzip and store; the engine is idle in the window",
	setup: func(seed int64, dir string) (instance, error) {
		t := &traceExportInst{seed: seed}
		naive, pi := seedUnits[0], seedUnits[len(seedUnits)-1]
		// pi at four times the steps and a sixteenth of the sample period:
		// an event-heavy trace beside gemm-naive's state-heavy one.
		pi.Params = map[string]int64{"steps": 409600, "threads": 8}
		pi.Floats = map[string]float64{"step": 1.0 / 409600, "final_sum": 0}
		data := newGEMMData(seed, 64)
		for i, u := range []workloads.Unit{naive, pi} {
			p, err := core.Build(context.Background(), u.Source, core.BuildOptions{Defines: u.Defines})
			if err != nil {
				return nil, err
			}
			args, err := unitArgs(p, u, data)
			if err != nil {
				return nil, err
			}
			cfg := sim.DefaultConfig()
			pin := expected.Units[u.Name].Profiled
			if i == 1 {
				cfg.Profile.SamplePeriod = 64
				pin = expected.PiDense
			}
			out, err := p.Run(context.Background(), args, cfg)
			if err != nil {
				return nil, err
			}
			if err := checkUnit(u, newUnitRun(out, args, 0), data, pin); err != nil {
				return nil, err
			}
			src := &traceSource{name: traceSources[i], st: out.Streams, cycles: out.Result.Cycles}
			var prv bytes.Buffer
			if err := src.st.WritePRV(&prv); err != nil {
				return nil, err
			}
			src.prvBytes = int64(prv.Len())
			src.lines, src.records = countRecords(prv.Bytes())
			t.sources = append(t.sources, src)
		}
		// A small byte budget, so the store reaches its evicting steady
		// state during warm-up and the disk use stays bounded.
		var err error
		if t.st, err = store.Open(dir, 48<<20); err != nil {
			return nil, err
		}
		if _, err := t.exportBoth(-1, nil); err != nil {
			return nil, err
		}
		return t, nil
	},
}

// traceSource is one simulated run whose trace the ops export.
type traceSource struct {
	name     string
	st       *paraver.StreamTrace
	cycles   int64
	prvBytes int64
	lines    int64 // record lines of the .prv, header excluded
	records  int64 // state, event and communication records a scan delivers
}

// countRecords counts the record lines of a .prv and the records a scan
// delivers for them: one per state or communication line, one per
// type:value pair of an event line.
func countRecords(prv []byte) (lines, records int64) {
	for i, line := range bytes.Split(bytes.TrimSpace(prv), []byte("\n")) {
		if i == 0 || len(line) == 0 || line[0] == '#' {
			continue
		}
		lines++
		if line[0] == '2' {
			records += int64(bytes.Count(line, []byte(":"))+1-6) / 2
		} else {
			records++
		}
	}
	return lines, records
}

// countingStats is analysis.StreamStats plus a count of the records the
// scan delivered.
type countingStats struct {
	*analysis.StreamStats
	records int64
}

func (c *countingStats) State(s paraver.StateRec) error {
	c.records++
	return c.StreamStats.State(s)
}

func (c *countingStats) Event(e paraver.EventRec) error {
	c.records++
	return c.StreamStats.Event(e)
}

func (c *countingStats) Comm(cm paraver.CommRec) error {
	c.records++
	return c.StreamStats.Comm(cm)
}

type traceExportInst struct {
	seed    int64
	sources []*traceSource
	st      *store.Store

	gzBySrc [2]int64 // .prv.gz bytes of the latest op per source
}

// exportBoth is one op: each source in turn exported and read back.
// Taking both into one op keeps the op latency in one mode; the state-heavy
// trace takes twice as long as the event-heavy one.
func (t *traceExportInst) exportBoth(i int, tr *opTrace) (time.Duration, error) {
	var total time.Duration
	for which := range t.sources {
		dur, err := t.export(i, which, tr)
		if err != nil {
			return 0, err
		}
		total += dur
	}
	return total, nil
}

// export writes one source under a fresh digest and reads it back: the
// nymbled persist path followed by the prv2stats path.
func (t *traceExportInst) export(i, which int, tr *opTrace) (time.Duration, error) {
	src := t.sources[which]
	sum := sha256.Sum256([]byte(fmt.Sprintf("trace_export/%d/%d/%d", t.seed, i, which)))
	digest := hex.EncodeToString(sum[:])

	start := time.Now()
	files, err := renderBundle(tr, src.st)
	if err != nil {
		return 0, err
	}
	tr.do("store.Put", func() { err = t.st.Put(digest, files) })
	if err != nil {
		return 0, err
	}
	var ent store.Entry
	var ok bool
	tr.do("store.Get", func() {
		if ent, ok = t.st.Get(digest); !ok {
			return
		}
		files["trace.prv.gz"], err = ent.ReadFile("trace.prv.gz")
	})
	if !ok {
		return 0, fmt.Errorf("store: digest %s missing after put", digest)
	}
	if err != nil {
		return 0, err
	}
	var prv []byte
	tr.do("gzip.Read", func() {
		var zr *gzip.Reader
		if zr, err = gzip.NewReader(bytes.NewReader(files["trace.prv.gz"])); err != nil {
			return
		}
		prv, err = io.ReadAll(zr)
	})
	if err != nil {
		return 0, err
	}
	stats := &countingStats{StreamStats: analysis.NewStreamStats(96, 64)}
	tr.do("paraver.ScanPRV", func() { err = paraver.ScanPRV(bytes.NewReader(prv), stats) })
	dur := time.Since(start)
	if err != nil {
		return 0, err
	}

	t.gzBySrc[which] = int64(len(files["trace.prv.gz"]))
	switch {
	case int64(len(prv)) != src.prvBytes:
		err = fmt.Errorf("%s: read back %d bytes, wrote %d", src.name, len(prv), src.prvBytes)
	case stats.Hdr.EndTime != src.cycles:
		err = fmt.Errorf("%s: header end time %d, simulated %d cycles", src.name, stats.Hdr.EndTime, src.cycles)
	case stats.records != src.records:
		err = fmt.Errorf("%s: scan delivered %d records, %d lines hold %d", src.name, stats.records, src.lines, src.records)
	}
	return dur, err
}

func (t *traceExportInst) run(w *window) []sample {
	return w.loop(func(i int, tr *opTrace) (string, time.Duration, bool) {
		dur, err := t.exportBoth(i, tr)
		return "export", dur, passed("trace_export", i, err)
	})
}

func (t *traceExportInst) report(m *metricSet, un, tr *phase) error {
	bytesMoved := 2 * int64(len(un.samples)) * (t.sources[0].prvBytes + t.sources[1].prvBytes)
	m.setNote("trace_mb_per_s", ratio(mb(bytesMoved), un.wall.Seconds()),
		"%.1f MB of .prv written and read back in %.3f s", mb(bytesMoved), un.wall.Seconds())
	for _, s := range t.sources {
		m.set("paraver.prv_mb."+s.name, mb(s.prvBytes))
		m.setNote("paraver.records."+s.name, float64(s.records), "on %d lines", s.lines)
	}
	if len(tr.samples) == 0 {
		return nil
	}
	prvMB := mb(t.sources[0].prvBytes + t.sources[1].prvBytes)
	gzMB := mb(t.gzBySrc[0] + t.gzBySrc[1])
	perS := func(mbytes, millis float64) float64 { return ratio(mbytes, millis/1e3) }
	m.set("paraver.write_prv_ms", tr.spanMs("paraver.WritePRV"))
	m.setNote("paraver.write_prv_mb_per_s", perS(prvMB, tr.spanMs("paraver.WritePRV")), "%.2f MB per op", prvMB)
	m.set("paraver.gzip_ms", tr.spanMs("gzip.Write"))
	m.setNote("paraver.gzip_ratio", ratio(prvMB, gzMB), "%.2f MB to %.2f MB", prvMB, gzMB)
	m.set("paraver.gunzip_ms", tr.spanMs("gzip.Read"))
	m.set("paraver.scan_ms", tr.spanMs("paraver.ScanPRV"))
	m.setNote("paraver.scan_mb_per_s", perS(prvMB, tr.spanMs("paraver.ScanPRV")), "%.2f MB per op", prvMB)
	m.set("store.put_ms", tr.spanMs("store.Put"))
	m.set("store.get_ms", tr.spanMs("store.Get"))
	putMB := prvMB + gzMB
	m.setNote("store.put_mb_per_s", perS(putMB, tr.spanMs("store.Put")), "%.2f MB per op in two puts", putMB)
	st := t.st.Stats()
	m.setNote("store.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "of %d lookups", st.Hits+st.Misses)
	m.set("store.puts", float64(st.Puts))
	return nil
}

func (t *traceExportInst) close() error { return nil }
