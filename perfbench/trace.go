package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark spent inside a layer's public
// function: a call it made, timed from outside. Spans of one unit of work
// (a request, an ingest iteration) link to the span that caused them.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Items  int64  `json:"items,omitempty"` // work items the call covered
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write saves them when the run ends. A nil
// *tracer records nothing, which is what an untraced run passes around.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	last  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// add records a span that ran from start to end. id 0 allocates one.
func (t *tracer) add(name string, id, parent int64, start, end time.Time, items int64) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Items: items,
	})
	t.mu.Unlock()
}

// layerTime is one layer's total and self time over a run.
type layerTime struct {
	name        string
	calls       int64
	items       int64
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the time its child spans cover (children of one parent do not
// overlap: the benchmark makes its calls in sequence).
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	by := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			by[s.Name] = lt
		}
		lt.calls++
		lt.items += s.Items
		lt.total += s.dur()
		lt.self += s.dur() - child[s.ID]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// write saves the spans as NDJSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints each layer's call count, total and self time.
func (t *tracer) report(rep *report) {
	for _, lt := range t.selfTimes() {
		rep.printf("self time %-28s calls %-7d items %-9d total %10.3f ms  self %10.3f ms",
			lt.name, lt.calls, lt.items, ms(lt.total), ms(lt.self))
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
