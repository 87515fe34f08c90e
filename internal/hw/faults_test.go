package hw

import (
	"math"
	"testing"
	"time"
)

func TestZeroConfigDisablesInjection(t *testing.T) {
	var cfg FaultConfig
	if cfg.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if in := NewInjector(cfg); in != nil {
		t.Fatal("zero config must yield a nil injector (legacy code path)")
	}
	// Node-crash-only configs are cluster-level: still no executor injector.
	cfg.NodeCrashProb, cfg.NodeCrashMTBF = 1, time.Second
	if in := NewInjector(cfg); in != nil {
		t.Fatal("crash-only config must yield a nil executor injector")
	}
	for _, at := range (FaultConfig{}).CrashTimes(4) {
		if at != NeverCrash {
			t.Fatal("zero config must never crash nodes")
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := FaultConfig{
		Seed:              7,
		SensorDropoutProb: 0.2, SensorNoiseFrac: 0.1,
		StuckProb: 0.3, ClampProb: 0.2, DelayProb: 0.5,
		DelayLatency: 3 * time.Millisecond,
	}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for i := 0; i < 500; i++ {
		ta, tb := a.Transition(2, 9), b.Transition(2, 9)
		if ta != tb {
			t.Fatalf("transition %d diverged: %+v vs %+v", i, ta, tb)
		}
		ra, rb := a.SensorWindow(), b.SensorWindow()
		if ra != rb {
			t.Fatalf("sensor window %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestTransitionOutcomes(t *testing.T) {
	in := NewInjector(FaultConfig{
		Seed: 1, StuckProb: 0.3, ClampProb: 0.3,
		DelayProb: 0.5, DelayLatency: 2 * time.Millisecond,
	})
	var stuck, clamped, delayed, clean int
	for i := 0; i < 2000; i++ {
		tr := in.Transition(0, 10)
		switch {
		case tr.Stuck:
			stuck++
			if tr.Applied != 0 {
				t.Fatalf("stuck transition moved level to %d", tr.Applied)
			}
		case tr.Clamped:
			clamped++
			if tr.Applied <= 0 || tr.Applied >= 10 {
				t.Fatalf("clamped 0→10 applied %d, want interior", tr.Applied)
			}
		default:
			clean++
			if tr.Applied != 10 {
				t.Fatalf("clean transition applied %d, want 10", tr.Applied)
			}
		}
		if tr.ExtraLatency > 0 {
			delayed++
			if tr.ExtraLatency > 2*time.Millisecond {
				t.Fatalf("extra latency %v exceeds configured max", tr.ExtraLatency)
			}
		}
	}
	for name, n := range map[string]int{"stuck": stuck, "clamped": clamped, "delayed": delayed, "clean": clean} {
		if n == 0 {
			t.Fatalf("no %s outcomes in 2000 draws", name)
		}
	}
}

func TestSensorWindowOutcomes(t *testing.T) {
	in := NewInjector(FaultConfig{Seed: 2, SensorDropoutProb: 0.3, SensorNoiseFrac: 0.2})
	var dropped, noisy int
	for i := 0; i < 1000; i++ {
		r := in.SensorWindow()
		if r.Dropped {
			dropped++
			continue
		}
		if !r.Noisy {
			t.Fatal("non-dropped window with NoiseFrac>0 must be noisy")
		}
		noisy++
		if r.PowerScale < 0 || r.PowerScale > 3 || r.BusyScale < 0 || r.BusyScale > 3 {
			t.Fatalf("scale out of physical bounds: %+v", r)
		}
	}
	if dropped == 0 || noisy == 0 {
		t.Fatalf("dropped=%d noisy=%d, want both > 0", dropped, noisy)
	}
}

func TestCrashTimesDeterministicAndSeedSensitive(t *testing.T) {
	cfg := FaultConfig{Seed: 9, NodeCrashProb: 0.5, NodeCrashMTBF: 10 * time.Second}
	a, b := cfg.CrashTimes(8), cfg.CrashTimes(8)
	crashes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("crash schedule must be deterministic per seed")
		}
		if a[i] != NeverCrash {
			crashes++
			if a[i] <= 0 {
				t.Fatalf("non-positive crash time %v", a[i])
			}
		}
	}
	if crashes == 0 {
		t.Fatal("expected at least one crash at p=0.5 over 8 nodes")
	}
	cfg2 := cfg
	cfg2.Seed = 10
	c := cfg2.CrashTimes(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different schedules")
	}
}

func TestForNodeDerivesDistinctStreams(t *testing.T) {
	cfg := FaultConfig{Seed: 3, StuckProb: 0.5}
	a := NewInjector(cfg.ForNode(0))
	b := NewInjector(cfg.ForNode(1))
	same := true
	for i := 0; i < 64; i++ {
		if a.Transition(0, 5) != b.Transition(0, 5) {
			same = false
		}
	}
	if same {
		t.Fatal("per-node streams must differ")
	}
}

func TestFaultStatsAddTotal(t *testing.T) {
	a := FaultStats{SensorDropouts: 1, StuckTransitions: 2, ActuationRetries: 4}
	b := FaultStats{SensorNoisy: 3, ClampedTransitions: 5, DelayedTransitions: 6, WatchdogReasserts: 7}
	a.Add(b)
	want := FaultStats{
		SensorDropouts: 1, SensorNoisy: 3, StuckTransitions: 2,
		ClampedTransitions: 5, DelayedTransitions: 6,
		ActuationRetries: 4, WatchdogReasserts: 7,
	}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
	if got := a.Total(); got != 1+3+2+5+6 {
		t.Fatalf("Total = %d", got)
	}
}

// TestFaultConfigValidate pins the valid ranges: probabilities in [0, 1],
// a finite non-negative noise level, non-negative durations.
func TestFaultConfigValidate(t *testing.T) {
	valid := []FaultConfig{
		{},
		{Seed: 3, SensorDropoutProb: 1, SensorNoiseFrac: 0.2, StuckProb: 1, ClampProb: 0.5,
			DelayProb: 1, DelayLatency: time.Millisecond, NodeCrashProb: 1, NodeCrashMTBF: time.Second},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	for _, tc := range []struct {
		c    FaultConfig
		want string
	}{
		{FaultConfig{SensorDropoutProb: -0.2}, "hw: fault SensorDropoutProb -0.2 outside [0, 1]"},
		{FaultConfig{StuckProb: 1.5}, "hw: fault StuckProb 1.5 outside [0, 1]"},
		{FaultConfig{ClampProb: math.NaN()}, "hw: fault ClampProb NaN outside [0, 1]"},
		{FaultConfig{DelayProb: math.Inf(1)}, "hw: fault DelayProb +Inf outside [0, 1]"},
		{FaultConfig{NodeCrashProb: 2}, "hw: fault NodeCrashProb 2 outside [0, 1]"},
		{FaultConfig{SensorNoiseFrac: -1}, "hw: fault SensorNoiseFrac -1 is not a finite value >= 0"},
		{FaultConfig{SensorNoiseFrac: math.Inf(1)}, "hw: fault SensorNoiseFrac +Inf is not a finite value >= 0"},
		{FaultConfig{DelayLatency: -time.Millisecond}, "hw: negative fault DelayLatency -1ms"},
		{FaultConfig{NodeCrashMTBF: -time.Second}, "hw: negative fault NodeCrashMTBF -1s"},
	} {
		if err := tc.c.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %v, want %q", tc.c, err, tc.want)
		}
	}
}
