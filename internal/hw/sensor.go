package hw

import "time"

// PowerSample is one reading of the simulated power rail, tegrastats-style.
type PowerSample struct {
	At     time.Duration // simulation time of the sample
	PowerW float64
	FreqHz float64 // GPU frequency at the sample instant
}

// PowerSensor integrates power over simulated time and records periodic
// samples, mirroring how the paper monitors real-time power with tegrastats.
// Energy accounting is exact (power × interval per event); the sample trace
// exists for governor inputs and figure generation.
type PowerSensor struct {
	Period  time.Duration
	now     time.Duration
	energyJ float64
	samples []PowerSample

	// carry holds the currently-applied power level between events so
	// sampling interpolates the piecewise-constant power signal.
	lastPower float64
	lastFreq  float64
	nextTick  time.Duration
}

// NewPowerSensor returns a sensor sampling at the given period (tegrastats
// defaults to 1 s; the experiments use a finer 10 ms period for traces).
// A non-positive period disables the sample trace; energy integration is
// unaffected.
func NewPowerSensor(period time.Duration) *PowerSensor {
	return &PowerSensor{Period: period, nextTick: period}
}

// Reset returns the sensor to its initial state at a (possibly new) sampling
// period, retaining the sample buffer's capacity. The serving fast path
// resets one sensor per run instead of allocating; callers that hand out
// Samples() must not Reset while those slices are still referenced.
func (s *PowerSensor) Reset(period time.Duration) {
	s.Period = period
	s.now = 0
	s.energyJ = 0
	s.samples = s.samples[:0]
	s.lastPower = 0
	s.lastFreq = 0
	s.nextTick = period
}

// Advance accounts for an interval of length d during which the rail drew
// powerW at GPU frequency freqHz.
func (s *PowerSensor) Advance(d time.Duration, powerW, freqHz float64) {
	if d < 0 {
		panic("hw: PowerSensor.Advance with negative duration")
	}
	end := s.now + d
	// float64() rounds the product before the add, which forbids fusing the
	// two (arm64 and others fuse x*y + z): macro replay adds recorded,
	// rounded products and must land on the same bits.
	s.energyJ += float64(powerW * d.Seconds())
	if s.Period > 0 {
		for s.nextTick <= end {
			s.samples = append(s.samples, PowerSample{At: s.nextTick, PowerW: powerW, FreqHz: freqHz})
			s.nextTick += s.Period
		}
	}
	s.now = end
	s.lastPower = powerW
	s.lastFreq = freqHz
}

// FastForward advances the sensor across a precomputed span: the clock moves
// by d and the integrated energy is set to energyJ — the caller replays the
// span's per-event accumulation itself so the value is bit-identical to
// stepping through the span. lastPowerW/lastFreqHz restore the
// piecewise-constant carry at the span's end. Only valid with the sample
// trace off (Period <= 0): fast-forwarded spans emit no samples.
func (s *PowerSensor) FastForward(d time.Duration, energyJ, lastPowerW, lastFreqHz float64) {
	if d < 0 {
		panic("hw: PowerSensor.FastForward with negative duration")
	}
	s.now += d
	s.energyJ = energyJ
	s.lastPower = lastPowerW
	s.lastFreq = lastFreqHz
}

// Now returns the current simulation time.
func (s *PowerSensor) Now() time.Duration { return s.now }

// EnergyJ returns the exactly-integrated energy so far.
func (s *PowerSensor) EnergyJ() float64 { return s.energyJ }

// AveragePowerW returns energy/time, the P̄ of the paper's EE metric.
func (s *PowerSensor) AveragePowerW() float64 {
	t := s.now.Seconds()
	if t == 0 {
		return 0
	}
	return s.energyJ / t
}

// Samples returns the recorded trace.
func (s *PowerSensor) Samples() []PowerSample { return s.samples }
