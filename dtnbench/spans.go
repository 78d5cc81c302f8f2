package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, taken by the
// benchmark around the call. Spans of one benchmark run share Run.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer still times calls but records nothing, so untraced and traced
// runs execute the same code.
type tracer struct {
	mu    sync.Mutex
	run   string
	next  int64
	spans []span
}

func newTracer(run string, firstID int64) *tracer {
	return &tracer{run: run, next: firstID}
}

// timing is an open span; end closes it.
type timing struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span named name under parent (0 for a root).
func (t *tracer) begin(name string, parent int64) timing {
	tm := timing{t: t, parent: parent, name: name}
	if t != nil {
		t.mu.Lock()
		t.next++
		tm.id = t.next
		t.mu.Unlock()
	}
	tm.start = time.Now()
	return tm
}

// end closes the span and returns its duration in seconds.
func (tm timing) end() float64 {
	stop := time.Now()
	if tm.t != nil {
		tm.t.mu.Lock()
		tm.t.spans = append(tm.t.spans, span{
			ID: tm.id, Parent: tm.parent, Run: tm.t.run, Name: tm.name,
			Start: tm.start.UnixNano(), End: stop.UnixNano(),
		})
		tm.t.mu.Unlock()
	}
	return stop.Sub(tm.start).Seconds()
}

// record appends a span timed by the caller.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Run: t.run, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(),
	})
	t.mu.Unlock()
}

// add appends spans recorded elsewhere (a worker process).
func (t *tracer) add(ss []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its child spans cover, in seconds.
func selfTimes(ss []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range ss {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range ss {
		covered := coveredNs(s, children[s.ID])
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// writeSpans writes the spans, their per-name self times and the host
// facts of the run as one JSON document.
func writeSpans(path string, host hostFacts, ss []span) error {
	doc := struct {
		Host  hostFacts          `json:"host"`
		Self  map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{host, selfTimes(ss), ss}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
