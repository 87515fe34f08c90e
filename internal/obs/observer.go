package obs

import "time"

// Observer bundles the three observability primitives behind one handle that
// instrumented code can carry. A nil *Observer disables everything: every
// method no-ops, so the instrumented hot paths pay a single nil check when
// observability is off (the tier-1 scenarios run with it off and stay
// byte-identical to the uninstrumented runtime).
type Observer struct {
	Metrics  *Registry
	Tracer   *Tracer
	Profiler *Profiler

	// TrackID is the trace track (trace_event tid) this observer emits on.
	// Derive per-node observers with ForTrack so concurrent simulations land
	// on separate tracks.
	TrackID int

	// clock maps emissions without an explicit timestamp (governor-level
	// events) onto simulated time. The owning executor installs it on reset.
	clock func() time.Duration
}

// New returns an observer with all three primitives enabled, emitting on
// track 1.
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Tracer: NewTracer(), Profiler: NewProfiler(), TrackID: 1}
}

// ForTrack returns a copy of the observer that shares the metrics registry,
// tracer and profiler but emits on its own trace track with its own clock.
// Use one per concurrently-simulated node; the underlying sinks are
// concurrency-safe.
func (o *Observer) ForTrack(tid int) *Observer {
	if o == nil {
		return nil
	}
	c := *o
	c.TrackID = tid
	c.clock = nil
	return &c
}

// SetClock installs the simulated-time source for clock-relative emissions.
func (o *Observer) SetClock(fn func() time.Duration) {
	if o != nil {
		o.clock = fn
	}
}

// Now returns the current simulated time (zero without a clock).
func (o *Observer) Now() time.Duration {
	if o == nil || o.clock == nil {
		return 0
	}
	return o.clock()
}

// Span records a complete span on this observer's track.
func (o *Observer) Span(cat, name string, start, dur time.Duration, args ...Arg) {
	if o == nil {
		return
	}
	o.Tracer.Complete(cat, name, o.TrackID, start, dur, args...)
}

// Mark records an instant event at an explicit simulated time.
func (o *Observer) Mark(cat, name string, at time.Duration, args ...Arg) {
	if o == nil {
		return
	}
	o.Tracer.Instant(cat, name, o.TrackID, at, args...)
}

// MarkNow records an instant event at the installed clock's current time.
func (o *Observer) MarkNow(cat, name string, args ...Arg) {
	if o == nil {
		return
	}
	o.Tracer.Instant(cat, name, o.TrackID, o.Now(), args...)
}
