package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, as written to the trace file.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent indexes the span that caused this one (-1 for a root).
	Parent int `json:"parent"`
	// Op is shared by every span of one operation (cell, round, grid).
	Op int64 `json:"op_id"`
}

// total accumulates every span of one name, kept or not.
type total struct {
	count int64
	ns    int64
}

// maxKeptSpans bounds the tracer's memory: a traced grid_small window
// would otherwise keep several million gradient spans.
const maxKeptSpans = 200_000

// tracer records spans at the benchmark's own call sites around each
// layer. Every span adds to its name's total; spans of every keepEvery-th
// operation are also kept in memory (up to maxKeptSpans) and written
// out when the run ends. A nil tracer is valid and records nothing, so
// call sites need no branch.
type tracer struct {
	t0        time.Time
	keepEvery int64

	mu     sync.Mutex
	spans  []span
	totals map[string]*total
}

func newTracer(keepEvery int64) *tracer {
	return &tracer{t0: time.Now(), keepEvery: keepEvery, totals: make(map[string]*total)}
}

// open is an in-flight span: begin returns it, end closes it.
type open struct {
	name  string
	start time.Duration
	// id indexes the kept span, or is -1 when the operation is not kept.
	id int
}

// begin opens a span. parent is the id of the causing span's open (or
// -1); children of an unkept span are unkept too.
func (t *tracer) begin(name string, parent int, op int64) open {
	if t == nil {
		return open{id: -1}
	}
	o := open{name: name, start: time.Since(t.t0), id: -1}
	if op%t.keepEvery != 0 {
		return o
	}
	t.mu.Lock()
	if len(t.spans) < maxKeptSpans {
		o.id = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Start: int64(o.start), Parent: parent, Op: op})
	}
	t.mu.Unlock()
	return o
}

// end closes a span opened by begin.
func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	t.mu.Lock()
	if o.id >= 0 {
		t.spans[o.id].End = int64(end)
	}
	t.addLocked(o.name, 1, int64(end-o.start))
	t.mu.Unlock()
}

// sub records a finished child of parent after the fact, from offsets
// relative to the parent's start — for phases the caller timed itself.
func (t *tracer) sub(parent open, name string, op int64, from, to time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if parent.id >= 0 && len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{Name: name, Start: int64(parent.start + from), End: int64(parent.start + to), Parent: parent.id, Op: op})
	}
	t.addLocked(name, 1, int64(to-from))
	t.mu.Unlock()
}

// add folds count calls totalling ns into a name's total without
// keeping spans — for calls too fine to record one by one
// (Dataset.Sample runs about a thousand times per small cell).
func (t *tracer) add(name string, count, ns int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.addLocked(name, count, ns)
	t.mu.Unlock()
}

func (t *tracer) addLocked(name string, count, ns int64) {
	tot := t.totals[name]
	if tot == nil {
		tot = &total{}
		t.totals[name] = tot
	}
	tot.count += count
	tot.ns += ns
}

// count and ms read a name's total; both are 0 for a nil tracer or an
// unseen name.
func (t *tracer) count(name string) float64 {
	if t == nil || t.totals[name] == nil {
		return 0
	}
	return float64(t.totals[name].count)
}

func (t *tracer) ms(name string) float64 {
	if t == nil || t.totals[name] == nil {
		return 0
	}
	return float64(t.totals[name].ns) / 1e6
}

// msPer is the name's total time divided by n (0 when n is 0).
func (t *tracer) msPer(name string, n float64) float64 {
	if n == 0 {
		return 0
	}
	return t.ms(name) / n
}

func (t *tracer) kept() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval its
// child spans cover. Children may overlap one another (gradient spans
// run on concurrent goroutines), so covered time is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// write stores the kept spans as JSON under dir and returns the path.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	return path, os.WriteFile(path, blob, 0o644)
}
