package obs

import (
	"cmp"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span-based decision tracing. Every governor decision, DVFS actuation,
// power-block residency, fault injection, guard intervention and cluster job
// lifecycle event is recorded as a timestamped event on a track (tid) and
// exported in the Chrome trace_event JSON format, so a run can be inspected
// in Perfetto or chrome://tracing. Timestamps are *simulated* time — the
// trace shows what happened on the simulated board, not host wall time.

// Trace event phases (the trace_event "ph" field).
const (
	PhaseComplete = "X" // a span with a duration
	PhaseInstant  = "i" // a point event
)

// Arg is one typed event argument: a key with an integer, float, string or
// boolean value. Build args with Int, Float, Str and Bool.
type Arg struct {
	Key  string
	kind argKind
	num  uint64 // Int: the int64 bits; Float: the IEEE-754 bits; Bool: 0 or 1
	str  string // Str value
}

type argKind uint8

const (
	kindInt argKind = iota
	kindFloat
	kindStr
	kindBool
)

// Int returns an integer argument.
func Int(key string, v int) Arg { return Arg{Key: key, kind: kindInt, num: uint64(int64(v))} }

// Float returns a float argument.
func Float(key string, v float64) Arg {
	return Arg{Key: key, kind: kindFloat, num: math.Float64bits(v)}
}

// Str returns a string argument.
func Str(key, v string) Arg { return Arg{Key: key, kind: kindStr, str: v} }

// Bool returns a boolean argument.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Value returns the argument's value as an int, float64, string or bool.
func (a Arg) Value() any {
	switch a.kind {
	case kindInt:
		return int(int64(a.num))
	case kindFloat:
		return math.Float64frombits(a.num)
	case kindStr:
		return a.str
	default:
		return a.num != 0
	}
}

// sortArgs orders args by key in place (insertion sort: events carry a
// handful of args, usually already in order).
func sortArgs(args []Arg) {
	for i := 1; i < len(args); i++ {
		for j := i; j > 0 && args[j].Key < args[j-1].Key; j-- {
			args[j], args[j-1] = args[j-1], args[j]
		}
	}
}

// Event is one trace_event entry. TsUS/DurUS are microseconds, the unit the
// Chrome trace format mandates. Args are sorted by key.
type Event struct {
	Name  string
	Cat   string
	Phase string
	TsUS  float64
	DurUS float64
	PID   int
	TID   int
	Scope string // instant scope ("t" = thread)
	Args  []Arg
}

// Start returns the event timestamp as a duration since trace start.
func (e Event) Start() time.Duration { return time.Duration(e.TsUS * float64(time.Microsecond)) }

// Duration returns the span length (zero for instants).
func (e Event) Duration() time.Duration { return time.Duration(e.DurUS * float64(time.Microsecond)) }

// Tracer collects events. Safe for concurrent use (cluster nodes trace from
// their own goroutines); a nil *Tracer is valid and records nothing.
//
// Each track (tid) keeps its own storage behind its own lock, so emitters on
// different tracks never contend: a cluster node's goroutine only ever takes
// its own track's lock. Storage grows in chunks that are never moved or
// rewritten once filled, so readers snapshot a track by copying its chunk
// list and event count under the lock and then read the records unlocked.
type Tracer struct {
	mu     sync.Mutex                     // serializes track creation
	tracks atomic.Pointer[map[int]*track] // copy-on-write; emitters read it lock-free
}

// Chunk sizes: a track's record and arg chunks start small (a track with a
// handful of events stays small) and double up to a fixed ceiling, so growth
// never copies an event.
const (
	firstRecChunk = 64
	maxRecChunk   = 2048
	firstArgChunk = 128
	maxArgChunk   = 4096
)

// rec is one stored event. Its args live in the track's arg chunks.
type rec struct {
	name, cat string
	ts, dur   float64
	args      []Arg
	instant   bool
}

type track struct {
	tid int

	mu     sync.Mutex
	chunks [][]rec // every chunk but the last is full
	cur    []rec   // the last chunk
	pos    int     // records used in cur
	argBuf []Arg   // the current arg chunk
	argPos int     // args used in argBuf
	n      int     // records on the track
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// track returns the storage for tid, creating it on first use.
func (t *Tracer) track(tid int) *track {
	if m := t.tracks.Load(); m != nil {
		if tr := (*m)[tid]; tr != nil {
			return tr
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.tracks.Load()
	if old != nil {
		if tr := (*old)[tid]; tr != nil {
			return tr
		}
	}
	next := make(map[int]*track)
	if old != nil {
		for id, tr := range *old {
			next[id] = tr
		}
	}
	tr := &track{tid: tid}
	next[tid] = tr
	t.tracks.Store(&next)
	return tr
}

// emit appends one event to its track. The args are copied into the track's
// own storage and sorted there, so the caller's slice never escapes (a
// variadic call builds it on the caller's stack).
func (t *Tracer) emit(tid int, r rec, args []Arg) {
	tr := t.track(tid)
	tr.mu.Lock()
	if k := len(args); k > 0 {
		if tr.argPos+k > len(tr.argBuf) {
			size := min(max(2*len(tr.argBuf), firstArgChunk), maxArgChunk)
			tr.argBuf, tr.argPos = make([]Arg, max(size, k)), 0
		}
		dst := tr.argBuf[tr.argPos : tr.argPos+k : tr.argPos+k]
		copy(dst, args)
		sortArgs(dst)
		tr.argPos += k
		r.args = dst
	}
	if tr.pos == len(tr.cur) {
		tr.cur = make([]rec, min(max(2*len(tr.cur), firstRecChunk), maxRecChunk))
		tr.chunks = append(tr.chunks, tr.cur)
		tr.pos = 0
	}
	tr.cur[tr.pos] = r
	tr.pos++
	tr.n++
	tr.mu.Unlock()
}

// Complete records a span of the given duration starting at start.
func (t *Tracer) Complete(cat, name string, tid int, start, dur time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(tid, rec{name: name, cat: cat, ts: usOf(start), dur: usOf(dur)}, args)
}

// Instant records a point event at the given time.
func (t *Tracer) Instant(cat, name string, tid int, at time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(tid, rec{name: name, cat: cat, ts: usOf(at), instant: true}, args)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	n := 0
	for _, tr := range t.trackList() {
		tr.mu.Lock()
		n += tr.n
		tr.mu.Unlock()
	}
	return n
}

// trackList returns the tracks in id order.
func (t *Tracer) trackList() []*track {
	if t == nil {
		return nil
	}
	m := t.tracks.Load()
	if m == nil {
		return nil
	}
	out := make([]*track, 0, len(*m))
	for _, tr := range *m {
		out = append(out, tr)
	}
	slices.SortFunc(out, func(a, b *track) int { return cmp.Compare(a.tid, b.tid) })
	return out
}

// ordered snapshots the track and returns its records in timestamp order,
// emission order breaking ties. Records below the snapshotted count are
// never written again, so they are read without the lock.
func (tr *track) ordered() []*rec {
	tr.mu.Lock()
	chunks, n := tr.chunks, tr.n
	tr.mu.Unlock()
	out := make([]*rec, 0, n)
	for _, c := range chunks {
		for i := range c {
			if len(out) == n {
				break
			}
			out = append(out, &c[i])
		}
	}
	slices.SortStableFunc(out, func(a, b *rec) int { return cmp.Compare(a.ts, b.ts) })
	return out
}

// event returns the record as an Event on track tid. The args slice is the
// tracer's own (immutable) storage.
func (r *rec) event(tid int) Event {
	e := Event{Name: r.name, Cat: r.cat, Phase: PhaseComplete, TsUS: r.ts, DurUS: r.dur,
		PID: 1, TID: tid, Args: r.args}
	if r.instant {
		e.Phase, e.Scope = PhaseInstant, "t"
	}
	return e
}

// Events returns a deterministic copy of the recorded events: tracks in id
// order, and within a track by timestamp with emission order breaking ties.
// Concurrent tracks (cluster nodes) emit in scheduler order, but each track's
// own emission order is fixed, so this order is reproducible for a fixed
// seed.
//
// Events is a copy-on-read snapshot: it can be called at any point during a
// run, concurrently with emitters, and the returned slice (args included) is
// independent of the tracer and of later appends. This is what lets the
// telemetry server read a trace mid-run without racing the executor.
func (t *Tracer) Events() []Event {
	tracks := t.trackList()
	ordered := make([][]*rec, len(tracks))
	n, nargs := 0, 0
	for i, tr := range tracks {
		ordered[i] = tr.ordered()
		n += len(ordered[i])
		for _, r := range ordered[i] {
			nargs += len(r.args)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	args := make([]Arg, 0, nargs)
	for i, tr := range tracks {
		for _, r := range ordered[i] {
			e := r.event(tr.tid)
			if len(r.args) > 0 {
				start := len(args)
				args = append(args, r.args...)
				e.Args = args[start:len(args):len(args)]
			}
			out = append(out, e)
		}
	}
	return out
}

// WriteTrace writes the tracer's events as Chrome trace_event JSON, in
// Events order, streaming track by track without materializing the event
// list. Like Events, it can run concurrently with emitters.
func (t *Tracer) WriteTrace(w io.Writer) error {
	cw := newChromeWriter(w)
	for _, tr := range t.trackList() {
		for _, r := range tr.ordered() {
			ev := r.event(tr.tid)
			if err := cw.event(&ev); err != nil {
				return err
			}
		}
	}
	return cw.close()
}
