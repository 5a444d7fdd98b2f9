package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call or interval recorded by the traced run. Spans are
// taken from the benchmark's own files, around the calls into each layer;
// spans inside the program under test are a later change.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // benchmark clock
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    uint64 `json:"req"`    // spans of one packet, join or phase share it
}

// tracer keeps spans in memory until the run ends; only the goroutine
// driving the run adds to it. A nil *tracer is the untraced run: every method
// is a no-op.
type tracer struct {
	spans []span
}

// add records a finished span and returns its index (-1 when not tracing).
func (t *tracer) add(name string, start, end int64, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		out[s.Name] += (s.End - s.Start) - covered(t.spans, children[i], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var sum int64
	at := lo
	for _, k := range kids {
		s, e := max(spans[k].Start, at), min(spans[k].End, hi)
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// traceFile is what a traced run leaves in bench/out/.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Provenance provenance         `json:"provenance"`
	Counters   map[string]float64 `json:"counters"`
	SelfNs     map[string]int64   `json:"self_ns"`
	Spans      []span             `json:"spans"`
}

func (t *tracer) write(dir string, f traceFile) (string, error) {
	f.SelfNs = t.selfTimes()
	f.Spans = t.spans
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace."+f.Workload+".json")
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
