package obs

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

// TestTracerConcurrentReaders exercises the copy-on-read contract under the
// race detector: emitters append (and keep mutating their own args buffers,
// which the tracer must have copied at emission time) while readers
// repeatedly snapshot and serialize the event list mid-run — Events and
// WriteTrace, the latter what the telemetry server's /runs/{id}/trace
// handler streams.
func TestTracerConcurrentReaders(t *testing.T) {
	tr := NewTracer()
	const emitters, perEmitter, readers = 4, 200, 3

	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			args := []Arg{Int("n", 0)} // reused and mutated between emissions
			for i := 0; i < perEmitter; i++ {
				args[0] = Int("n", i)
				if i%2 == 0 {
					tr.Complete("block", "b", tid, time.Duration(i)*time.Millisecond, time.Millisecond, args...)
				} else {
					tr.Instant("decision", "d", tid, time.Duration(i)*time.Millisecond, args...)
				}
				args[0] = Int("n", -1)
			}
		}(e + 1)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := WriteChromeTrace(io.Discard, tr.Events()); err != nil {
					t.Errorf("mid-run WriteChromeTrace: %v", err)
					return
				}
				var buf bytes.Buffer
				if err := tr.WriteTrace(&buf); err != nil {
					t.Errorf("mid-run WriteTrace: %v", err)
					return
				}
				if _, err := ReadChromeTrace(&buf); err != nil {
					t.Errorf("mid-run round-trip: %v", err)
					return
				}
				_ = tr.Len()
			}
		}()
	}
	wg.Wait()

	evs := tr.Events()
	if len(evs) != emitters*perEmitter {
		t.Fatalf("events = %d, want %d", len(evs), emitters*perEmitter)
	}
	// The tracer copied the args at emission time: every event must carry
	// the n it was emitted with, not the emitter's later value.
	byTID := map[int]int{}
	for _, ev := range evs {
		i := byTID[ev.TID]
		if len(ev.Args) != 1 || ev.Args[0] != Int("n", i) {
			t.Fatalf("track %d event %d has args %v, want n=%d (args not copied at append)", ev.TID, i, ev.Args, i)
		}
		byTID[ev.TID]++
	}
}

// TestTracerEventsOwnArgs checks a snapshot's args are its own: mutating
// them changes neither the tracer nor a later snapshot.
func TestTracerEventsOwnArgs(t *testing.T) {
	tr := NewTracer()
	tr.Instant("decision", "d", 1, 0, Int("n", 1))
	evs := tr.Events()
	evs[0].Args[0] = Int("n", 99)
	if a := tr.Events()[0].Args[0]; a != Int("n", 1) {
		t.Fatalf("mutating a snapshot's args leaked into the tracer: %v", a.Value())
	}
}

// TestTracerSnapshotIndependent checks a mid-run Events slice is unaffected
// by later appends.
func TestTracerSnapshotIndependent(t *testing.T) {
	tr := NewTracer()
	tr.Instant("decision", "first", 1, 0, Str("k", "v"))
	snap := tr.Events()
	tr.Instant("decision", "second", 1, time.Millisecond)
	if len(snap) != 1 || snap[0].Name != "first" {
		t.Fatalf("snapshot changed after append: %+v", snap)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
}
