package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"powerlens/internal/hw"
	"powerlens/internal/models"
)

// sameResult compares two results ignoring the Samples trace.
func sameResult(a, b Result) bool {
	a.Samples, b.Samples = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestRunTaskZeroAllocSteadyState pins the serving fast path: with tracing
// off (SensorPeriod <= 0) and no optional subsystems, a warm executor must
// not touch the heap at all across whole repeat runs — 0 allocs/op for every
// layer step.
func TestRunTaskZeroAllocSteadyState(t *testing.T) {
	p := hw.TX2()
	e := NewExecutor(p, &fixedCtl{level: 3})
	e.SensorPeriod = 0
	g := models.AlexNet()
	e.RunTask(g, 2) // warm: sensor, cost grid

	allocs := testing.AllocsPerRun(10, func() {
		e.RunTask(g, 2)
	})
	if allocs != 0 {
		t.Fatalf("warm RunTask allocated %.0f times per run, want 0", allocs)
	}
}

// TestTracingOffMatchesTracingOn pins that disabling the trace only removes
// Result.Samples — energy, time, and every other field stay bit-identical.
func TestTracingOffMatchesTracingOn(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()

	on := NewExecutor(p, &fixedCtl{level: 3})
	rOn := on.RunTask(g, 4)

	off := NewExecutor(p, &fixedCtl{level: 3})
	off.SensorPeriod = 0
	rOff := off.RunTask(g, 4)

	if len(rOn.Samples) == 0 {
		t.Fatal("tracing on produced no samples")
	}
	if len(rOff.Samples) != 0 {
		t.Fatalf("tracing off produced %d samples", len(rOff.Samples))
	}
	if !sameResult(rOn, rOff) {
		t.Fatalf("results differ beyond Samples:\non  %+v\noff %+v", rOn, rOff)
	}
}

// TestSensorReuseDoesNotLeakAcrossRuns pins that the reused sensor starts
// every run from scratch: two identical tasks on one executor must agree
// exactly with a fresh executor's run.
func TestSensorReuseDoesNotLeakAcrossRuns(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()

	e := NewExecutor(p, &fixedCtl{level: 3})
	e.SensorPeriod = 0
	first := e.RunTask(g, 3)
	second := e.RunTask(g, 3)
	if !sameResult(first, second) {
		t.Fatalf("repeat run on reused sensor differs:\n1st %+v\n2nd %+v", first, second)
	}

	fresh := NewExecutor(p, &fixedCtl{level: 3})
	fresh.SensorPeriod = 0
	if r := fresh.RunTask(g, 3); !sameResult(r, second) {
		t.Fatalf("reused executor differs from fresh executor:\nreused %+v\nfresh  %+v", second, r)
	}
}

// TestSensorPeriodZeroTerminates guards the Period <= 0 semantics at the
// sensor layer: Advance must integrate energy exactly and never sample.
func TestSensorPeriodZeroTerminates(t *testing.T) {
	for _, period := range []time.Duration{0, -time.Millisecond} {
		s := hw.NewPowerSensor(period)
		s.Advance(time.Second, 5, 1e9)
		if got := s.EnergyJ(); math.Abs(got-5) > 1e-12 {
			t.Fatalf("period %v: energy = %v, want 5", period, got)
		}
		if n := len(s.Samples()); n != 0 {
			t.Fatalf("period %v: %d samples, want 0", period, n)
		}
	}
}

// TestSensorReset pins in-place reset: full state back to t=0, buffer
// reused, new period applied.
func TestSensorReset(t *testing.T) {
	s := hw.NewPowerSensor(10 * time.Millisecond)
	s.Advance(100*time.Millisecond, 2, 1e9)
	if len(s.Samples()) == 0 || s.EnergyJ() == 0 {
		t.Fatal("setup run recorded nothing")
	}
	s.Reset(20 * time.Millisecond)
	if s.Now() != 0 || s.EnergyJ() != 0 || len(s.Samples()) != 0 {
		t.Fatalf("reset left state behind: now=%v energy=%v samples=%d",
			s.Now(), s.EnergyJ(), len(s.Samples()))
	}
	s.Advance(40*time.Millisecond, 1, 1e9)
	if n := len(s.Samples()); n != 2 {
		t.Fatalf("post-reset sampling at new period: %d samples, want 2", n)
	}
}

// TestPrivateGridTracksGraphAndBatch pins the executor's private single-slot
// cost grid: switching graphs, batch sizes or platforms must rebuild it, and
// results must equal a fresh executor's.
func TestPrivateGridTracksGraphAndBatch(t *testing.T) {
	p := hw.TX2()
	g1 := models.AlexNet()
	g2 := models.MustBuild("mobilenet_v3")

	e := NewExecutor(p, &fixedCtl{level: 3})
	e.SensorPeriod = 0
	e.RunTask(g1, 2)
	got := e.RunTask(g2, 2)

	fresh := NewExecutor(p, &fixedCtl{level: 3})
	fresh.SensorPeriod = 0
	if want := fresh.RunTask(g2, 2); !sameResult(got, want) {
		t.Fatalf("graph switch reused stale costs:\ngot  %+v\nwant %+v", got, want)
	}

	e.Batch = 4
	gotBatched := e.RunTask(g2, 8)
	freshB := NewExecutor(p, &fixedCtl{level: 3})
	freshB.SensorPeriod = 0
	freshB.Batch = 4
	if want := freshB.RunTask(g2, 8); !sameResult(gotBatched, want) {
		t.Fatalf("batch switch reused stale costs:\ngot  %+v\nwant %+v", gotBatched, want)
	}

	e.Platform = hw.AGX()
	gotAGX := e.RunTask(g2, 8)
	freshA := NewExecutor(e.Platform, &fixedCtl{level: 3})
	freshA.SensorPeriod = 0
	freshA.Batch = 4
	if want := freshA.RunTask(g2, 8); !sameResult(gotAGX, want) {
		t.Fatalf("platform switch reused stale costs:\ngot  %+v\nwant %+v", gotAGX, want)
	}
}
