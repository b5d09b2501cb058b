package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module: an op, a
// sim.WarmTrace, or a standalone probe. Times are nanoseconds since
// the recorder's origin. Spans of one op share its Op id; Parent is
// the id of the enclosing span (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced code paths pay one nil check.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	return id
}

// addDur records a child span of known total duration that starts with
// its parent: the accumulated time of many short calls (the
// prefetcher's), which would cost more to record one by one than they
// take.
func (r *recorder) addDur(name string, parent, op int, start time.Time, d time.Duration) int {
	return r.add(name, parent, op, start, start.Add(d))
}

// merge appends spans recorded by another process whose origin lies
// offset after this recorder's, renumbering their ids.
func (r *recorder) merge(spans []span, offset time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += offset.Nanoseconds()
		s.End += offset.Nanoseconds()
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
