package sim

import (
	"fmt"
	"time"

	"powerlens/internal/obs"
)

// Executor instrumentation. When Executor.Obs is set, the run streams into
// the observability layer:
//
//   - metrics: windows, DVFS switches, images, energy, actuation retries and
//     watchdog re-asserts as counters; per-window busy ratio and power as
//     histograms — all labelled by controller name;
//   - spans: one "block" span per GPU-frequency residency segment, one
//     "actuation" span per level transition (covering retries), "decision"
//     instants at every governor window, and "fault" instants for injected
//     sensor/actuation faults.
//
// All emission sites are guarded by a single `e.Obs == nil` check, and
// nothing here feeds back into the simulation, so disabled-observability
// runs take the exact pre-instrumentation code path bit for bit.

// ratioBuckets covers [0,1] fractions (busy ratios).
var ratioBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// powerBuckets covers Jetson-class rail power in watts.
var powerBuckets = []float64{0.5, 1, 2, 4, 6, 8, 12, 16, 24, 32}

// execMetrics holds the executor's metric handles for one run.
type execMetrics struct {
	windows   obs.Counter
	switches  obs.Counter
	images    obs.Counter
	energy    obs.Counter
	retries   obs.Counter
	reasserts obs.Counter
	busy      obs.Histogram
	power     obs.Histogram
}

// obsReset installs the run's observability state: the simulated-time clock,
// the metric handles, the injector's counters, and the first residency
// segment.
func (e *Executor) obsReset() {
	if e.Obs == nil {
		return
	}
	e.Obs.SetClock(func() time.Duration { return e.sensor.Now() })
	m := e.Obs.Metrics
	e.mx = execMetrics{
		windows: m.Counter("sim_windows_total",
			"Governor sampling windows delivered by the executor.", "controller"),
		switches: m.Counter("sim_dvfs_switches_total",
			"GPU DVFS level transitions actuated (including faulty attempts).", "controller"),
		images: m.Counter("sim_images_total",
			"Inference images completed.", "controller"),
		energy: m.Counter("sim_energy_joules_total",
			"Exactly-integrated rail energy.", "controller"),
		retries: m.Counter("sim_actuation_retries_total",
			"Bounded-backoff retries of stuck DVFS transitions.", "controller"),
		reasserts: m.Counter("sim_watchdog_reasserts_total",
			"Stuck frequencies detected and re-asserted by the watchdog.", "controller"),
		busy: m.Histogram("sim_window_busy_ratio",
			"GPU busy fraction per governor window.", ratioBuckets, "controller"),
		power: m.Histogram("sim_window_power_watts",
			"Mean rail power per governor window.", powerBuckets, "controller"),
	}
	e.ctlName = e.Ctl.Name()
	e.blockNames = e.blockNames[:0]
	for _, f := range e.Platform.GPUFreqsHz {
		e.blockNames = append(e.blockNames, fmt.Sprintf("%.0f MHz", f/1e6))
	}
	e.segStart, e.segLevel = 0, e.gpuLevel
	if e.Faults != nil {
		e.Faults.SetObserver(e.Obs)
	}
}

// noteWindow records a delivered governor window and the post-decision state.
func (e *Executor) noteWindow(stats WindowStats) {
	e.mx.windows.Inc(e.ctlName)
	e.mx.busy.Observe(stats.GPUBusy, e.ctlName)
	e.mx.power.Observe(stats.AvgPowerW, e.ctlName)
	e.Obs.Mark("decision", e.ctlName, e.sensor.Now(),
		obs.Float("busy", stats.GPUBusy),
		obs.Int("gpu_level", e.gpuLevel),
		obs.Float("power_w", stats.AvgPowerW))
}

// noteSwitch closes the departing frequency-residency block span and records
// the actuation span [start, now], covering every retry attempt of a faulted
// transition.
func (e *Executor) noteSwitch(from, want int, start time.Duration, attempts, stuck, clamped int) {
	now := e.sensor.Now()
	e.flushBlockSpan(start)
	// Args in key order; the optional fault counts only when nonzero.
	var buf [6]obs.Arg
	args := append(buf[:0], obs.Int("applied", e.gpuLevel))
	if attempts > 1 {
		args = append(args, obs.Int("attempts", attempts))
	}
	if clamped > 0 {
		args = append(args, obs.Int("clamped", clamped))
	}
	args = append(args, obs.Int("from", from))
	if stuck > 0 {
		args = append(args, obs.Int("stuck", stuck))
	}
	args = append(args, obs.Int("want", want))
	e.Obs.Span("actuation", "dvfs-switch", start, now-start, args...)
	e.mx.switches.Add(float64(attempts), e.ctlName)
	e.segStart, e.segLevel = now, e.gpuLevel
}

// flushBlockSpan emits the residency span that ends at the given instant.
func (e *Executor) flushBlockSpan(end time.Duration) {
	if end <= e.segStart {
		return
	}
	f := e.Platform.GPUFreqsHz[e.segLevel]
	e.Obs.Span("block", e.blockNames[e.segLevel], e.segStart, end-e.segStart,
		obs.Float("freq_mhz", f/1e6), obs.Int("gpu_level", e.segLevel))
}

// noteFault records an injected-fault instant on the trace.
func (e *Executor) noteFault(name string, args ...obs.Arg) {
	e.Obs.Mark("fault", name, e.sensor.Now(), args...)
}

// obsResult flushes the final residency block and the run totals.
func (e *Executor) obsResult(r Result) {
	if e.Obs == nil {
		return
	}
	e.flushBlockSpan(e.sensor.Now())
	e.mx.images.Add(float64(r.Images), e.ctlName)
	e.mx.energy.Add(r.EnergyJ, e.ctlName)
}
