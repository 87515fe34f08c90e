package obs

import (
	"testing"
	"time"
)

func TestNilObserver(t *testing.T) {
	var o *Observer
	// The entire API must be callable on nil — this is the disabled path the
	// executor takes when Obs is unset.
	o.SetClock(func() time.Duration { return time.Second })
	if o.Now() != 0 {
		t.Fatal("nil observer clock must read 0")
	}
	o.Span("c", "n", 0, time.Second)
	o.Mark("c", "n", 0)
	o.MarkNow("c", "n")
	if o.ForTrack(7) != nil {
		t.Fatal("ForTrack on nil must stay nil")
	}
}

func TestObserverClockAndTracks(t *testing.T) {
	o := New()
	now := 250 * time.Millisecond
	o.SetClock(func() time.Duration { return now })
	o.MarkNow("guard", "decision")

	// A per-node copy shares the sinks but has its own track and clock.
	n := o.ForTrack(105)
	if n.Metrics != o.Metrics || n.Tracer != o.Tracer || n.Profiler != o.Profiler {
		t.Fatal("ForTrack must share the sinks")
	}
	if n.Now() != 0 {
		t.Fatal("ForTrack must not inherit the clock")
	}
	n.SetClock(func() time.Duration { return time.Second })
	n.MarkNow("guard", "decision")
	if o.Now() != now {
		t.Fatal("copy clock must not leak back")
	}

	evs := o.Tracer.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].TID != 1 || evs[0].Start() != now {
		t.Fatalf("track-1 event = %+v", evs[0])
	}
	if evs[1].TID != 105 || evs[1].Start() != time.Second {
		t.Fatalf("track-105 event = %+v", evs[1])
	}
}
