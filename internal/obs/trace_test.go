package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.Complete("block", "921 MHz", 1, 10*time.Millisecond, 5*time.Millisecond,
		Int("gpu_level", 7))
	tr.Instant("fault", "sensor-dropout", 1, 12*time.Millisecond)
	var sb strings.Builder
	if err := tr.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadChromeTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Name != "921 MHz" || evs[0].Phase != PhaseComplete {
		t.Fatalf("event[0] = %+v", evs[0])
	}
	if evs[0].Start() != 10*time.Millisecond || evs[0].Duration() != 5*time.Millisecond {
		t.Fatalf("span times = %v + %v", evs[0].Start(), evs[0].Duration())
	}
	if evs[1].Phase != PhaseInstant || evs[1].Scope != "t" {
		t.Fatalf("event[1] = %+v", evs[1])
	}
	if len(evs[0].Args) != 1 || evs[0].Args[0] != Int("gpu_level", 7) {
		t.Fatalf("args = %+v", evs[0].Args)
	}
}

func TestEventsSorted(t *testing.T) {
	tr := NewTracer()
	// Emitted out of track/time order, as concurrent nodes would.
	tr.Instant("a", "late", 2, 30*time.Millisecond)
	tr.Instant("a", "tie-second", 1, 10*time.Millisecond)
	tr.Instant("a", "early", 2, 5*time.Millisecond)
	tr.Instant("a", "first", 1, time.Millisecond)
	evs := tr.Events()
	var names []string
	for _, e := range evs {
		names = append(names, e.Name)
	}
	want := "first,tie-second,early,late"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestEventsTieBreakBySeq(t *testing.T) {
	tr := NewTracer()
	tr.Instant("a", "one", 1, time.Millisecond)
	tr.Instant("a", "two", 1, time.Millisecond)
	evs := tr.Events()
	if evs[0].Name != "one" || evs[1].Name != "two" {
		t.Fatalf("same-timestamp events must keep emission order: %+v", evs)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Complete("c", "n", 1, 0, 0)
	tr.Instant("c", "n", 1, 0)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
	var sb strings.Builder
	if err := tr.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if evs, err := ReadChromeTrace(strings.NewReader(sb.String())); err != nil || len(evs) != 0 {
		t.Fatalf("empty trace round-trip: %v, %d events", err, len(evs))
	}
}

func TestReadChromeTraceRejects(t *testing.T) {
	if _, err := ReadChromeTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage must not decode")
	}
	noPhase := `{"traceEvents":[{"name":"x","ts":1}],"displayTimeUnit":"ms"}`
	if _, err := ReadChromeTrace(strings.NewReader(noPhase)); err == nil {
		t.Fatal("events without a phase must be rejected")
	}
}
