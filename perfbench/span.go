package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer, named
// "layer.Function". Calls > 1 marks a batch of identical calls timed as one
// (sub-microsecond calls cannot be timed one by one).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level call
	Name   string `json:"name"`
	Calls  int    `json:"calls"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// AllocBytes and Mallocs are runtime.MemStats deltas over the span. They
	// are recorded only for calls made on the benchmark's own goroutine;
	// callbacks that a layer runs on its worker goroutines (the controller
	// factory inside cloud.Run) record time only, since MemStats is process
	// wide and would mix in their siblings' allocations.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the whole run and writes them out at
// the end. A nil or switched-off recorder just runs the calls.
type recorder struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	on    bool
	spans []span
	open  []int // spans open on the benchmark's goroutine, innermost last
}

func newRecorder(runID string) *recorder {
	return &recorder{runID: runID, t0: time.Now()}
}

// setOn switches recording on or off; the traced run alternates it between
// repetitions so that untraced repetitions pay nothing.
func (r *recorder) setOn(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

func (r *recorder) active() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

// call runs f as one span on the benchmark's goroutine, nested under any
// span already open there.
func (r *recorder) call(name string, calls int, f func()) {
	if !r.active() {
		f()
		return
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Calls: calls})
	r.open = append(r.open, id)
	r.mu.Unlock()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Since(r.t0)
	f()
	end := time.Since(r.t0)
	runtime.ReadMemStats(&m1)

	r.mu.Lock()
	s := &r.spans[id-1]
	s.Start, s.End = start, end
	s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.Mallocs = m1.Mallocs - m0.Mallocs
	r.open = r.open[:len(r.open)-1]
	r.mu.Unlock()
}

// callback runs f as a span from a layer's worker goroutine, parented to the
// innermost span open on the benchmark's goroutine (the layer call that
// invoked the callback).
func (r *recorder) callback(name string, f func()) {
	if !r.active() {
		f()
		return
	}
	start := time.Since(r.t0)
	f()
	end := time.Since(r.t0)
	r.mu.Lock()
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Calls: 1, Start: start, End: end})
	r.mu.Unlock()
}

// now is the recorder's clock, for marking measured windows.
func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// named returns the finished spans with the given name, in start order.
func (r *recorder) named(name string) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// window is a half-open interval of recorder time.
type window struct{ start, end time.Duration }

// selfTime returns the total self time of the spans that start inside the
// windows: each span's duration minus the part of it that its children
// cover. For sequential calls this is the time covered by spans at all;
// callbacks that run in parallel each add their own time.
func (r *recorder) selfTime(ws []window) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]window{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], window{s.Start, s.End})
		}
	}
	var total time.Duration
	for _, s := range r.spans {
		if !inside(s.Start, ws) {
			continue
		}
		total += s.dur() - covered(children[s.ID], window{s.Start, s.End})
	}
	return total
}

func inside(t time.Duration, ws []window) bool {
	for _, w := range ws {
		if t >= w.start && t < w.end {
			return true
		}
	}
	return false
}

// covered returns the length of the union of ivs clipped to w.
func covered(ivs []window, w window) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total time.Duration
	cur := window{-1, -1}
	for _, iv := range ivs {
		if iv.start < w.start {
			iv.start = w.start
		}
		if iv.end > w.end {
			iv.end = w.end
		}
		if iv.end <= iv.start {
			continue
		}
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
		} else if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// write stores every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	doc := struct {
		RunID string `json:"run_id"`
		Spans []span `json:"spans"`
	}{r.runID, r.spans}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
