package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its own calls into each
// layer; the program itself is not instrumented. They stay in memory
// and are written once, when the run ends.

// span is one timed call. Parent is the index of the enclosing span in
// the tracer, or -1 for a root. Spans of one op share Op.
type span struct {
	Name   string  `json:"name"`
	Op     int64   `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh op id.
func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, op int64, parent int) int {
	now := ms(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := ms(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, op int64, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: ms(start.Sub(t.epoch)), End: ms(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// rollup is the per-name self time of the recorded spans: a span's
// duration minus the part its children cover (children never overlap
// their parent's other children here, so the sum is exact).
type rollup struct {
	selfMs map[string]float64
	durMs  map[string]float64
	count  map[string]int
}

func (t *tracer) rollup() rollup {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := rollup{selfMs: map[string]float64{}, durMs: map[string]float64{}, count: map[string]int{}}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		r.selfMs[s.Name] += s.End - s.Start - child[i]
		r.durMs[s.Name] += s.End - s.Start
		r.count[s.Name]++
	}
	return r
}

// perOp is the self time of name per "op" span.
func (r rollup) perOp(name string) float64 {
	if r.count["op"] == 0 {
		return -1
	}
	return r.selfMs[name] / float64(r.count["op"])
}

// meanDur is the mean duration of one span of name, children included.
func (r rollup) meanDur(name string) float64 {
	if r.count[name] == 0 {
		return -1
	}
	return r.durMs[name] / float64(r.count[name])
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accounting fills the two trace metrics shared by every workload.
// layers are the per-op self times of the spans an op decomposes into;
// together with the unattributed share they sum to the untraced op
// time. overhead compares the traced op with the untraced one.
func accounting(out map[string]float64, untracedMs, tracedMs float64, layers ...float64) {
	var sum float64
	for _, l := range layers {
		sum += l
	}
	out["trace.unattributed_share"] = (untracedMs - sum) / untracedMs
	out["trace.overhead_share"] = (tracedMs - untracedMs) / untracedMs
}
