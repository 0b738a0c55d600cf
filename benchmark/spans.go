package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// surface. Spans of one op share the op id; Parent is 0 for a span no
// other span caused. SelfNs is filled in when the spans are written.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps every span of a traced run in memory; nothing is
// written until the run has ended.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// opTrace records the spans of one op on one goroutine. A nil *opTrace
// is the untraced run: do just calls f.
type opTrace struct {
	rec   *recorder
	op    int
	stack []int
	spans []span
}

// begin opens the trace of op; nil when the run is untraced.
func (r *recorder) begin(op int) *opTrace {
	if r == nil {
		return nil
	}
	return &opTrace{rec: r, op: op}
}

func (r *recorder) id() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// do runs f inside a span named "layer.Call"; the layer is the part
// before the first dot.
func (t *opTrace) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	layer, _, _ := strings.Cut(name, ".")
	s := span{ID: t.rec.id(), Op: t.op, Name: name, Layer: layer}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1]
	}
	t.stack = append(t.stack, s.ID)
	s.StartNs = time.Since(t.rec.t0).Nanoseconds()
	f()
	s.EndNs = time.Since(t.rec.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans = append(t.spans, s)
}

// end hands the op's spans to the recorder.
func (t *opTrace) end() {
	if t == nil {
		return
	}
	t.rec.mu.Lock()
	t.rec.spans = append(t.rec.spans, t.spans...)
	t.rec.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of
// it covered by its children. Children are merged as a union of
// intervals, so children that ran in parallel are not counted twice.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, end := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, end), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans writes the spans of a finished run, each with its self time.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	self := selfTimes(spans)
	for i := range spans {
		spans[i].SelfNs = self[spans[i].ID]
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
