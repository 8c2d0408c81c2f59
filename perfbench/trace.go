package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// simulator. Spans of one workload iteration share Run; Parent is the
// index of the enclosing span, or -1 for a root.
type Span struct {
	Run     int    `json:"run"`
	Workers int    `json:"workers"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer times calls into the simulator. It always measures; when on,
// it also keeps every span in memory until the run writes them out.
// Spans come only from the benchmark's own code, around its calls into
// each layer — nothing inside the program is instrumented.
type tracer struct {
	on      bool
	t0      time.Time
	run     int // iteration the next spans belong to
	workers int // host worker count of that iteration
	spans   []Span
	open    []int // indices of the spans not yet ended, innermost last
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span named "<layer>.<call>" and returns the function
// that ends it and yields its duration in seconds.
func (t *tracer) begin(name string) func() float64 {
	start := time.Now()
	idx := -1
	if t.on {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		idx = len(t.spans)
		t.spans = append(t.spans, Span{
			Run: t.run, Workers: t.workers, ID: idx, Parent: parent, Name: name,
			StartNS: start.Sub(t.t0).Nanoseconds(),
		})
		t.open = append(t.open, idx)
	}
	return func() float64 {
		end := time.Now()
		if idx >= 0 {
			t.spans[idx].EndNS = end.Sub(t.t0).Nanoseconds()
			t.open = t.open[:len(t.open)-1]
		}
		return end.Sub(start).Seconds()
	}
}

// layerOf is the layer a span is attributed to: the part of its name
// before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the self time of the spans in the
// subtree of root: each span's duration minus the part its children
// cover. The values sum to root's duration.
func selfTimes(spans []Span, root int) map[string]float64 {
	inTree := map[int]bool{root: true}
	for i := root + 1; i < len(spans); i++ {
		if inTree[spans[i].Parent] {
			inTree[i] = true
		}
	}
	self := map[string]float64{}
	for i := range spans {
		if !inTree[i] {
			continue
		}
		d := spans[i].EndNS - spans[i].StartNS
		self[layerOf(spans[i].Name)] += float64(d) / 1e9
		if p := spans[i].Parent; i != root && inTree[p] {
			self[layerOf(spans[p].Name)] -= float64(d) / 1e9
		}
	}
	return self
}

// writeSpans writes every recorded span as one JSON document.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
