package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer.  Spans of one job share Job; Parent is the id of the
// span that caused it (0 for a root).
type span struct {
	ID, Parent, Job int64
	Name            string
	Start, End      time.Duration // since the tracer's start
}

// maxCallbackSpans bounds the callback spans kept for the Chrome
// trace; the probes' counters still cover every call past it.
const maxCallbackSpans = 20000

// tracer keeps spans in memory until the run ends.  A nil *tracer
// records nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0       time.Time
	nextID   atomic.Int64
	recorded atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (nil for a job root, which then
// starts a new job id).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: t.nextID.Add(1), Name: name, Start: time.Since(t.t0)}
	if parent != nil {
		s.Parent, s.Job = parent.ID, parent.Job
	} else {
		s.Job = s.ID
	}
	return s
}

// end closes s and keeps it.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	s.End = time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// record keeps a callback span whose interval the caller already
// measured, up to maxCallbackSpans of them.
func (t *tracer) record(name string, parent *span, start, end time.Time) {
	if t == nil || t.recorded.Add(1) > maxCallbackSpans {
		return
	}
	s := span{ID: t.nextID.Add(1), Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	if parent != nil {
		s.Parent, s.Job = parent.ID, parent.Job
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// children maps span ids to their direct children; t.mu is held.
func (t *tracer) children() map[int64][]span {
	out := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// phaseCoverage returns, over every root span named root, the median
// share of the root's wall time covered by the union of its direct
// children.
func (t *tracer) phaseCoverage(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := t.children()
	var cov sample
	for _, s := range t.spans {
		if s.Name != root || s.Parent != 0 || s.End <= s.Start {
			continue
		}
		cov = append(cov, float64(union(children[s.ID]))/float64(s.End-s.Start))
	}
	return cov.median()
}

// durations returns the wall times, in seconds, of the root spans
// named name.
func (t *tracer) durations(name string) sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out sample
	for _, s := range t.spans {
		if s.Name == name && s.Parent == 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfTimes sums, per span name, the span time not covered by the
// span's direct children, and counts the spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := t.children()
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - union(children[s.ID])
		count[s.Name]++
	}
	return self, count
}

// union is the total length of the union of the spans' intervals.
func union(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total time.Duration
	lo, hi := sorted[0].Start, sorted[0].End
	for _, s := range sorted[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one thread per job, parents given in the args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Job,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
