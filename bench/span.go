package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval the benchmark recorded around its own call
// into a layer. Spans of one operation share ID (the portable or
// connection); Parent is the index of the enclosing span, -1 at the
// root.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id,omitempty"`
	Index   int    `json:"span"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: begin and end are then two nil checks, which is
// how timed passes run.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name, id string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Index: i, Parent: parent,
		StartNS: int64(time.Since(t.t0)),
	})
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNS = int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != i {
		panic(fmt.Sprintf("bench: span %q closed out of order", t.spans[i].Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span index, the span's duration minus the part
// of its interval that its direct children cover. Children may overlap
// or touch; the covered part is the union of their intervals clipped to
// the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.Index]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// spanTotals sums duration and self time by span name.
type spanTotal struct {
	Count       int
	Total, Self int64
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.dur()
		t.Self += self[i]
		out[s.Name] = t
	}
	return out
}

// durations lists the durations (ns) of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeSpans dumps the spans as JSONL, once, when the run ends.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}
