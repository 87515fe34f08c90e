package hw

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"powerlens/internal/obs"
)

// Fault-injection layer. Real Jetson-class boards break the clean-sensor /
// clean-actuation assumptions the simulator otherwise makes: tegrastats
// drops samples and reads noisy rails, nvpmodel and thermal management clamp
// requested frequency transitions, transitions land late (PLL relock,
// devfreq queueing) or not at all, and in a §5-style cloud deployment whole
// nodes disappear. This file models all of that as a seeded, deterministic
// process so resilience experiments are reproducible: the same FaultConfig
// seed yields the same fault schedule on every run.
//
// The zero FaultConfig is fault-free and NewInjector returns nil for it, so
// fault-free runs take exactly the pre-fault code paths (bit-identical
// results).

// FaultConfig describes one deterministic fault schedule. The zero value
// disables all faults.
type FaultConfig struct {
	// Seed drives every random draw in the schedule.
	Seed int64

	// Sensor faults, applied per governor sampling window.
	SensorDropoutProb float64 // probability a window's reading is lost (stale stats delivered)
	SensorNoiseFrac   float64 // stddev of multiplicative gaussian noise on readings

	// DVFS actuation faults, applied per requested level transition.
	StuckProb    float64       // transition silently fails; frequency stays put
	ClampProb    float64       // transition is clamped partway (nvpmodel/thermal limit)
	DelayProb    float64       // transition pays extra latency on top of SwitchLatency
	DelayLatency time.Duration // magnitude of the extra transition latency

	// Node crashes (cloud deployments). Each node crashes at most once:
	// with probability NodeCrashProb, at a time drawn from an exponential
	// distribution with mean NodeCrashMTBF.
	NodeCrashProb float64
	NodeCrashMTBF time.Duration
}

// Validate reports the first setting no fault schedule can have: a
// probability outside [0, 1], a noise level that is negative or not finite,
// or a negative DelayLatency or NodeCrashMTBF. The zero value is valid.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"SensorDropoutProb", c.SensorDropoutProb},
		{"StuckProb", c.StuckProb},
		{"ClampProb", c.ClampProb},
		{"DelayProb", c.DelayProb},
		{"NodeCrashProb", c.NodeCrashProb},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("hw: fault %s %v outside [0, 1]", p.name, p.v)
		}
	}
	switch {
	case !(c.SensorNoiseFrac >= 0 && c.SensorNoiseFrac <= math.MaxFloat64):
		return fmt.Errorf("hw: fault SensorNoiseFrac %v is not a finite value >= 0", c.SensorNoiseFrac)
	case c.DelayLatency < 0:
		return fmt.Errorf("hw: negative fault DelayLatency %v", c.DelayLatency)
	case c.NodeCrashMTBF < 0:
		return fmt.Errorf("hw: negative fault NodeCrashMTBF %v", c.NodeCrashMTBF)
	}
	return nil
}

// Enabled reports whether any executor-level fault can fire. Node-crash
// settings are cluster-level and do not by themselves enable an injector.
func (c FaultConfig) Enabled() bool {
	return c.SensorDropoutProb > 0 || c.SensorNoiseFrac > 0 ||
		c.StuckProb > 0 || c.ClampProb > 0 || c.DelayProb > 0
}

// ForNode derives a per-node config with an independent seed, so nodes
// simulated concurrently draw from disjoint deterministic streams regardless
// of goroutine scheduling.
func (c FaultConfig) ForNode(node int) FaultConfig {
	c.Seed = c.Seed + int64(node+1)*7919 // distinct odd stride per node
	return c
}

// NeverCrash marks a node that stays up for the whole run.
const NeverCrash = time.Duration(1<<63 - 1)

// CrashTimes returns the deterministic per-node crash schedule for n nodes:
// NeverCrash for surviving nodes, otherwise the crash instant. The schedule
// uses its own rng stream so it is independent of executor-level draws.
func (c FaultConfig) CrashTimes(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = NeverCrash
	}
	if c.NodeCrashProb <= 0 || c.NodeCrashMTBF <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5DEECE66D))
	for i := range out {
		crash := rng.Float64() < c.NodeCrashProb
		at := time.Duration(rng.ExpFloat64() * float64(c.NodeCrashMTBF))
		if crash && at > 0 {
			out[i] = at
		}
	}
	return out
}

// FaultStats counts injected faults and the runtime's recovery actions. It
// appears in sim.Result and, aggregated, in cloud.Result.
type FaultStats struct {
	SensorDropouts     int // governor windows whose reading was lost
	SensorNoisy        int // governor windows with perturbed readings
	StuckTransitions   int // requested transitions that silently failed
	ClampedTransitions int // transitions clamped partway to the target
	DelayedTransitions int // transitions that paid extra latency
	ActuationRetries   int // immediate bounded-backoff retries of stuck transitions
	WatchdogReasserts  int // stuck frequencies detected and re-asserted later
}

// Add accumulates another stats block (cluster aggregation).
func (s *FaultStats) Add(o FaultStats) {
	s.SensorDropouts += o.SensorDropouts
	s.SensorNoisy += o.SensorNoisy
	s.StuckTransitions += o.StuckTransitions
	s.ClampedTransitions += o.ClampedTransitions
	s.DelayedTransitions += o.DelayedTransitions
	s.ActuationRetries += o.ActuationRetries
	s.WatchdogReasserts += o.WatchdogReasserts
}

// Total returns the number of injected fault events (not recovery actions).
func (s FaultStats) Total() int {
	return s.SensorDropouts + s.SensorNoisy + s.StuckTransitions +
		s.ClampedTransitions + s.DelayedTransitions
}

// Injector draws fault outcomes from a seeded stream. A nil *Injector is
// valid and injects nothing; NewInjector returns nil for a fault-free
// config, which keeps fault-free call sites on the exact legacy code path.
type Injector struct {
	cfg FaultConfig
	rng *rand.Rand

	// Observability handles (zero-valued and inert until SetObserver).
	mWindows obs.Counter // hw_sensor_windows_total{outcome}
	mFaults  obs.Counter // hw_dvfs_faults_total{kind}
}

// NewInjector builds an injector for the config, or nil if the config
// cannot produce executor-level faults.
func NewInjector(cfg FaultConfig) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Config returns the schedule this injector draws from.
func (in *Injector) Config() FaultConfig { return in.cfg }

// SetObserver points the injector's fault counters at an observer's metrics
// registry. Observation never alters the draw stream, so instrumented and
// bare runs stay bit-identical.
func (in *Injector) SetObserver(o *obs.Observer) {
	if in == nil || o == nil || o.Metrics == nil {
		return
	}
	in.mWindows = o.Metrics.Counter("hw_sensor_windows_total",
		"Governor sampling windows observed through the fault layer, by outcome.", "outcome")
	in.mFaults = o.Metrics.Counter("hw_dvfs_faults_total",
		"DVFS actuation fault outcomes drawn by the injector, by kind.", "kind")
}

// SensorReading is the fault outcome for one governor window observation.
type SensorReading struct {
	Dropped    bool    // reading lost entirely
	Noisy      bool    // reading perturbed
	PowerScale float64 // multiplicative factor on observed power
	BusyScale  float64 // multiplicative factor on observed busy fractions
}

// SensorWindow draws the fault outcome for the next governor window.
func (in *Injector) SensorWindow() SensorReading {
	r := SensorReading{PowerScale: 1, BusyScale: 1}
	if in.cfg.SensorDropoutProb > 0 && in.rng.Float64() < in.cfg.SensorDropoutProb {
		r.Dropped = true
		in.mWindows.Inc("dropped")
		return r
	}
	if in.cfg.SensorNoiseFrac > 0 {
		r.Noisy = true
		r.PowerScale = clampScale(1 + in.rng.NormFloat64()*in.cfg.SensorNoiseFrac)
		r.BusyScale = clampScale(1 + in.rng.NormFloat64()*in.cfg.SensorNoiseFrac)
		in.mWindows.Inc("noisy")
		return r
	}
	in.mWindows.Inc("clean")
	return r
}

// clampScale keeps multiplicative noise physical (no negative readings,
// bounded blow-up).
func clampScale(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 3 {
		return 3
	}
	return s
}

// Transition is the fault outcome of one requested DVFS level change.
type Transition struct {
	Applied      int           // level actually in effect afterwards
	ExtraLatency time.Duration // additional pipeline stall beyond SwitchLatency
	Stuck        bool          // request silently ignored (Applied == from)
	Clamped      bool          // request limited partway toward the target
}

// Transition draws the outcome of a from→to level change. Exactly one of
// stuck/clamped can fire per request; extra latency can accompany either.
func (in *Injector) Transition(from, to int) Transition {
	tr := Transition{Applied: to}
	roll := in.rng.Float64()
	switch {
	case roll < in.cfg.StuckProb:
		tr.Stuck = true
		tr.Applied = from
		in.mFaults.Inc("stuck")
	case roll < in.cfg.StuckProb+in.cfg.ClampProb:
		tr.Clamped = true
		tr.Applied = (from + to) / 2
		if tr.Applied == from && to != from {
			// Single-step transitions cannot be halved; a clamp there is a
			// full block, still reported as clamped.
			tr.Applied = from
		}
		in.mFaults.Inc("clamped")
	default:
		in.mFaults.Inc("clean")
	}
	if in.cfg.DelayProb > 0 && in.rng.Float64() < in.cfg.DelayProb {
		tr.ExtraLatency = time.Duration(in.rng.Float64() * float64(in.cfg.DelayLatency))
		in.mFaults.Inc("delayed")
	}
	return tr
}
