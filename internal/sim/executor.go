// Package sim executes DNN operator graphs on a simulated hw.Platform under
// a pluggable DVFS controller, integrating time and energy exactly. It is
// the substrate all experiments run on: the reactive baselines observe
// windowed utilization samples (the "historical information" the paper
// criticizes), while PowerLens applies preset per-block frequencies at its
// instrumentation points.
package sim

import (
	"fmt"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/obs/audit"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/obs/slo"
)

// WindowStats summarizes one governor sampling window — the hardware state /
// historical information a reactive DVFS method sees.
type WindowStats struct {
	Period       time.Duration
	GPUBusy      float64 // fraction of the window the GPU executed kernels
	CPUBusy      float64 // fraction of the window the host CPU was busy
	AvgComputeUt float64 // mean ALU-bound fraction while the GPU was busy
	AvgPowerW    float64 // mean rail power over the window
	GPULevel     int
	CPULevel     int
}

// Controller is a DVFS policy. The executor consults GPULevel/CPULevel after
// every hook and pays a switch cost whenever the GPU level changes.
//
// Reactive governors act in OnWindow; PowerLens acts in BeforeLayer (its
// preset instrumentation points); Reset is called at the start of each run.
type Controller interface {
	Name() string
	Reset(p *hw.Platform)
	GPULevel() int
	CPULevel() int
	BeforeLayer(g *graph.Graph, layerID int)
	OnWindow(s WindowStats)
}

// Result aggregates a simulated run.
type Result struct {
	Controller string
	Platform   string
	Images     int
	Time       time.Duration
	EnergyJ    float64
	Switches   int
	Samples    []hw.PowerSample

	// Thermal results (zero unless Executor.Thermal was set).
	PeakTempC     float64
	ThrottledTime time.Duration

	// Faults counts injected faults and recovery actions (all zero unless
	// Executor.Faults was set).
	Faults hw.FaultStats

	// Passes counts completed inference passes (batched: one pass covers
	// Batch images); QoSViolations counts passes whose GPU busy time exceeded
	// the max-frequency reference by more than the QoS budget. Both are
	// tracked on every run — they never feed back into the simulation.
	Passes        int
	QoSViolations int

	// LevelEnergyJ / LevelTime decompose the run's energy and wall time by
	// the GPU DVFS level active while they accrued, indexed by ladder level.
	// Populated only when attribution is on (Executor.TrackLevels, Ledger or
	// SLO set); nil otherwise.
	LevelEnergyJ []float64
	LevelTime    []time.Duration
}

// AvgPowerW returns the run's mean power P̄.
func (r Result) AvgPowerW() float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.EnergyJ / r.Time.Seconds()
}

// EE returns the paper's energy-efficiency metric (eq. 1): images per joule.
func (r Result) EE() float64 {
	if r.EnergyJ <= 0 {
		return 0
	}
	return float64(r.Images) / r.EnergyJ
}

// FPS returns inference throughput in images per second.
func (r Result) FPS() float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(r.Images) / r.Time.Seconds()
}

// QoSViolationRate returns the fraction of passes that violated the QoS
// budget.
func (r Result) QoSViolationRate() float64 {
	if r.Passes <= 0 {
		return 0
	}
	return float64(r.QoSViolations) / float64(r.Passes)
}

// Headline returns the run's headline metrics as a flat name→value map, the
// snapshot a run manifest (obs/runlog) records so a stored result can be
// compared across runs without replaying the simulation.
func (r Result) Headline() map[string]float64 {
	h := map[string]float64{
		"images":             float64(r.Images),
		"time_s":             r.Time.Seconds(),
		"energy_j":           r.EnergyJ,
		"ee_img_per_j":       r.EE(),
		"avg_power_w":        r.AvgPowerW(),
		"dvfs_switches":      float64(r.Switches),
		"faults_total":       float64(r.Faults.Total()),
		"throttled_ms":       float64(r.ThrottledTime.Milliseconds()),
		"passes":             float64(r.Passes),
		"qos_violations":     float64(r.QoSViolations),
		"qos_violation_rate": r.QoSViolationRate(),
	}
	// Per-level energy shares, only for levels that actually burned energy,
	// so plain runs don't bloat manifests with zeros.
	if r.EnergyJ > 0 {
		for lvl, ej := range r.LevelEnergyJ {
			if ej > 0 {
				h[fmt.Sprintf("energy_share_l%02d", lvl)] = ej / r.EnergyJ
			}
		}
	}
	return h
}

// Task is one inference job: a model processing a number of images.
type Task struct {
	Graph  *graph.Graph
	Images int
}

// Executor drives tasks through a platform under a controller.
type Executor struct {
	Platform *hw.Platform
	Ctl      Controller

	// WindowPeriod is the reactive-governor sampling period (default 50 ms,
	// a typical devfreq polling interval; a non-positive period means the
	// default).
	WindowPeriod time.Duration
	// SensorPeriod is the tegrastats-style trace sampling period (default
	// 10 ms). A non-positive period turns the trace off — Result.Samples is
	// empty, energy integration stays exact, and the serving fast path
	// applies: the executor reuses its sensor and per-run scratch so
	// steady-state stepping performs no heap allocation.
	SensorPeriod time.Duration
	// Batch is the inference batch size (default 1). Batching multiplies
	// arithmetic and activation traffic per pass while weight traffic
	// amortizes — the §5 batching extension.
	Batch int
	// Thermal, when non-nil, enables the opt-in thermal model: junction
	// temperature is integrated alongside energy and a throttle latch caps
	// the applied GPU level while hot (MAXN-style throttling).
	Thermal *hw.ThermalModel
	// Faults, when non-nil, injects sensor and DVFS actuation faults drawn
	// from its seeded stream. The executor then runs its resilience
	// machinery: bounded-backoff retry of stuck transitions and a watchdog
	// that re-asserts a frequency the hardware never reached. Nil (the
	// default) keeps the exact fault-free code path.
	Faults *hw.Injector
	// MaxActuationRetries bounds the immediate retries of a stuck
	// transition before the executor gives up and leaves re-assertion to
	// the watchdog (default 2).
	MaxActuationRetries int
	// RetryBackoff is the initial idle backoff between actuation retries;
	// it doubles per retry, capped at 8× (default 1 ms).
	RetryBackoff time.Duration
	// Obs, when non-nil, streams metrics and decision/actuation/block spans
	// into the observability layer (see observe.go). Nil — the default —
	// keeps the exact uninstrumented code path; observation never feeds back
	// into the simulation, so results are identical either way.
	Obs *obs.Observer
	// Ledger, when non-nil, receives energy/latency attribution from the step
	// loop: each pass's (model digest, power block, DVFS level) cells, added
	// up layer by layer and applied once at pass end, plus one pass record
	// per inference pass. Like Obs, it never feeds back into the simulation
	// (see attrib.go).
	Ledger *ledger.Ledger
	// SLO, when non-nil, receives per-pass SLO events (latency degradation
	// vs the max-frequency reference, energy, violations) on the simulated
	// clock.
	SLO *slo.Tracker
	// Audit, when non-nil, is wired into the controller at reset (when the
	// controller implements AuditSink) so plan applications and guard
	// interventions land in the decision-audit trail on the simulated clock.
	// Records flow under track AuditTrack. Nil keeps the exact unaudited
	// code path (see audit.go).
	Audit *audit.Recorder
	// AuditTrack keys this executor's records in the shared recorder; cloud
	// runs give each node its own track.
	AuditTrack int
	// QoSBudget is the allowed per-pass GPU-time degradation before a pass
	// counts as a QoS violation (default DefaultQoSBudget).
	QoSBudget float64
	// TrackLevels opts into the per-level energy/time decomposition
	// (Result.LevelEnergyJ / LevelTime) without attaching a ledger or SLO
	// sink.
	TrackLevels bool
	// Summaries, when non-nil, enables macro-stepping (macro.go): passes of
	// a MacroSteppable controller are fast-forwarded from cached
	// FlowSummaries, bit-identical to micro-stepping them. The cache may be
	// shared across executors (cluster nodes); fills are single-flight.
	// Controllers that are not MacroSteppable (governor.Guard included) and
	// incompatible sinks (faults, obs, audit, thermal, the sample trace)
	// demote the run to micro-stepping, leaving the cache untouched.
	Summaries *SummaryCache
	// Grids, when non-nil, is a shared set of cost grids (grid.go) serving
	// this executor's platform. Cluster runs hand one set to every node
	// executor and dry-run probe, so each model is priced once per run. Nil —
	// or a set serving another platform — keeps one private grid, rebuilt in
	// place when the graph or batch changes. Results are identical either way.
	Grids *CostGrids

	thermal *hw.ThermalState

	sensor *hw.PowerSensor

	// Cost grid of the graph last micro-stepped: per-layer costs at every
	// level, per-level idle and switch costs, the graph digest (the
	// attribution key) and the max-frequency reference pass time (the QoS
	// baseline). From reset on it is never nil; before the first micro-stepped
	// pass it holds the per-level costs only, which are all idle gaps, host
	// tails and switches read. gridGraph is the graph it was fetched for (a
	// pointer memo; grids themselves are keyed by digest). own is the private
	// single-slot grid used without a shared set.
	grid      *CostGrid
	gridGraph *graph.Graph
	own       *CostGrid

	// Attribution state (see attrib.go). passes/qosViolations are tracked on
	// every run; the level slices only when attrib is set. passCells is the
	// current pass's ledger cells (reused across passes).
	attrib        bool
	blocks        BlockResolver
	levelEnergy   []float64
	levelTime     []time.Duration
	passCells     []cellDelta
	passes        int
	qosViolations int

	// Window accumulation state.
	window     time.Duration // WindowPeriod resolved at reset
	winElapsed time.Duration
	winGPUBusy time.Duration
	winCPUBusy time.Duration
	winCompute float64 // compute-utilization × busy-seconds
	winEnergy  float64

	gpuLevel int
	switches int
	images   int

	// Resilience state (only used when Faults != nil).
	wantLevel  int           // last level the controller asked for (post clamps)
	switching  bool          // re-entrancy guard for the faulted switch path
	faultStats hw.FaultStats // counters surfaced in Result.Faults
	lastStats  WindowStats   // last delivered window (stale data on dropout)
	haveStats  bool

	// Observability state (only used when Obs != nil).
	mx         execMetrics
	ctlName    string
	blockNames []string      // block span name per GPU ladder level
	segStart   time.Duration // start of the current frequency-residency block
	segLevel   int           // level of the current residency block

	// Macro-stepping state (see macro.go).
	macroCtl    MacroSteppable // e.Ctl when it implements MacroSteppable
	windowInert bool           // window segmentation skipped this run
	macroOK     bool           // fast-forward eligible this run
	rec         *macroRecorder // non-nil while recording a representative pass
	memoKey     summaryKey     // key of the summary fastForward last resolved
	memo        *FlowSummary   // that summary; nil until one resolves
	hits        uint64         // cache hits this run
}

// defaultWindowPeriod is the governor sampling period of NewExecutor, and
// the one an executor uses when WindowPeriod is not positive.
const defaultWindowPeriod = 50 * time.Millisecond

// NewExecutor returns an executor with default periods.
func NewExecutor(p *hw.Platform, ctl Controller) *Executor {
	return &Executor{
		Platform:     p,
		Ctl:          ctl,
		WindowPeriod: defaultWindowPeriod,
		SensorPeriod: 10 * time.Millisecond,
	}
}

// reset prepares run state. With tracing on, each run gets a fresh sensor so
// previously returned Result.Samples slices stay valid; with tracing off no
// samples escape, so the sensor is reset in place (zero-alloc path).
func (e *Executor) reset() {
	if e.sensor != nil && e.SensorPeriod <= 0 {
		e.sensor.Reset(e.SensorPeriod)
	} else {
		e.sensor = hw.NewPowerSensor(e.SensorPeriod)
	}
	e.Ctl.Reset(e.Platform)
	if e.grid == nil || e.grid.platform != e.Platform {
		// Idle gaps and window ticks may switch levels before the first
		// task: give them the platform's per-level costs.
		e.own = buildCostGrid(e.own, e.Platform, nil, 0, 1)
		e.grid, e.gridGraph = e.own, nil
	}
	// Wire the audit sink before the first GPULevel consultation below: a
	// guard may already strike on it, and that intervention must be recorded.
	e.auditReset()
	e.gpuLevel = e.Platform.ClampGPULevel(e.Ctl.GPULevel())
	e.switches = 0
	e.images = 0
	e.window = e.WindowPeriod
	if e.window <= 0 {
		e.window = defaultWindowPeriod
	}
	e.winElapsed, e.winGPUBusy, e.winCPUBusy = 0, 0, 0
	e.winCompute, e.winEnergy = 0, 0
	e.thermal = nil
	if e.Thermal != nil {
		e.thermal = hw.NewThermalState(e.Thermal)
	}
	e.wantLevel = e.gpuLevel
	e.switching = false
	e.faultStats = hw.FaultStats{}
	e.lastStats = WindowStats{}
	e.haveStats = false
	e.attribReset()
	e.obsReset()
	e.macroReset()
}

// advance accounts an interval with given power, busy flags, and compute
// utilization, ticking governor windows as they fill. In window-inert mode
// (macro.go) the window bookkeeping is skipped entirely: nothing consumes it
// — OnWindow no-ops, ticks never change the applied level — and skipping it
// makes the advance sequence of a pass independent of its window offset.
// Products added into float accumulators are wrapped in float64() so that no
// architecture fuses them into the add: macro replay adds the rounded
// products the recorder stored.
func (e *Executor) advance(d time.Duration, powerW float64, gpuBusy, cpuBusy bool, computeUt float64) {
	if e.windowInert {
		if e.rec != nil {
			e.rec.note(d, powerW, e.gpuLevel)
		}
		e.sensor.Advance(d, powerW, e.Platform.GPUFreqsHz[e.gpuLevel])
		if e.attrib {
			e.levelEnergy[e.gpuLevel] += float64(powerW * d.Seconds())
			e.levelTime[e.gpuLevel] += d
		}
		return
	}
	for d > 0 {
		room := e.window - e.winElapsed
		step := d
		if step > room {
			step = room
		}
		f := e.Platform.GPUFreqsHz[e.gpuLevel]
		e.sensor.Advance(step, powerW, f)
		if e.thermal != nil {
			e.thermal.Advance(step, powerW)
		}
		e.winElapsed += step
		if gpuBusy {
			e.winGPUBusy += step
			e.winCompute += float64(computeUt * step.Seconds())
		}
		if cpuBusy {
			e.winCPUBusy += step
		}
		e.winEnergy += float64(powerW * step.Seconds())
		if e.attrib {
			e.levelEnergy[e.gpuLevel] += float64(powerW * step.Seconds())
			e.levelTime[e.gpuLevel] += step
		}
		d -= step
		if e.winElapsed >= e.window {
			e.tickWindow()
		}
	}
}

// tickWindow delivers a completed window to the controller and applies any
// requested frequency change.
func (e *Executor) tickWindow() {
	period := e.winElapsed
	stats := WindowStats{
		Period:   period,
		GPULevel: e.gpuLevel,
		CPULevel: e.Ctl.CPULevel(),
	}
	if s := period.Seconds(); s > 0 {
		stats.GPUBusy = e.winGPUBusy.Seconds() / s
		stats.CPUBusy = e.winCPUBusy.Seconds() / s
		stats.AvgPowerW = e.winEnergy / s
	}
	if b := e.winGPUBusy.Seconds(); b > 0 {
		stats.AvgComputeUt = e.winCompute / b
	}
	e.winElapsed, e.winGPUBusy, e.winCPUBusy = 0, 0, 0
	e.winCompute, e.winEnergy = 0, 0

	if e.Faults != nil {
		stats = e.observeWindow(stats)
	}
	e.Ctl.OnWindow(stats)
	e.applyLevel()
	if e.Obs != nil {
		e.noteWindow(stats)
	}
}

// observeWindow passes ground-truth window stats through the fault
// injector's sensor model: a dropped window delivers the previous reading
// (tegrastats-style stale data), a noisy one perturbs the observed power and
// busy fractions. Energy accounting stays exact — only what the governor
// *sees* is corrupted.
func (e *Executor) observeWindow(stats WindowStats) WindowStats {
	r := e.Faults.SensorWindow()
	switch {
	case r.Dropped:
		e.faultStats.SensorDropouts++
		if e.Obs != nil {
			e.noteFault("sensor-dropout")
		}
		if e.haveStats {
			return e.lastStats
		}
		// Nothing delivered yet: the governor sees an empty first window.
		stats = WindowStats{Period: stats.Period, GPULevel: stats.GPULevel, CPULevel: stats.CPULevel}
	case r.Noisy:
		e.faultStats.SensorNoisy++
		stats.AvgPowerW *= r.PowerScale
		stats.GPUBusy = clamp01(stats.GPUBusy * r.BusyScale)
		stats.CPUBusy = clamp01(stats.CPUBusy * r.BusyScale)
		stats.AvgComputeUt = clamp01(stats.AvgComputeUt * r.BusyScale)
		if e.Obs != nil {
			e.noteFault("sensor-noise",
				obs.Float("busy_scale", r.BusyScale), obs.Float("power_scale", r.PowerScale))
		}
	}
	e.lastStats = stats
	e.haveStats = true
	return stats
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// applyLevel pays the switch cost if the controller's desired level differs
// from the currently applied one. With the thermal model enabled, the
// throttle latch caps the applied level regardless of the controller.
func (e *Executor) applyLevel() {
	want := e.Platform.ClampGPULevel(e.Ctl.GPULevel())
	if e.thermal != nil {
		want = e.thermal.CapLevel(want)
	}
	if e.Faults != nil {
		e.applyLevelFaulty(want)
		return
	}
	if want == e.gpuLevel {
		return
	}
	// During the transition the pipeline stalls at roughly idle power of the
	// departing frequency.
	from := e.gpuLevel
	start := e.sensor.Now()
	d, energy := e.grid.switchCost(e.gpuLevel)
	power := energy / d.Seconds()
	e.gpuLevel = want
	e.switches++
	e.advance(d, power, false, false, 0)
	if e.Obs != nil {
		e.noteSwitch(from, want, start, 1, 0, 0)
	}
}

// applyLevelFaulty actuates a level change through the fault injector. A
// stuck transition is retried immediately with bounded exponential backoff;
// if the hardware still refuses, the mismatch persists and the watchdog —
// the want==wantLevel check below — detects and re-asserts it the next time
// the controller state is applied (every window tick and instrumentation
// point). Clamped transitions are accepted as-is for this attempt: a
// thermal/nvpmodel clamp will not yield to an immediate retry.
func (e *Executor) applyLevelFaulty(want int) {
	if e.switching {
		// A window tick fired during a transition's own stall interval;
		// the outer call finishes the actuation.
		return
	}
	if want == e.gpuLevel {
		e.wantLevel = want
		return
	}
	if want == e.wantLevel {
		// The controller already asked for this level and the hardware
		// never got there: a stuck frequency caught by the watchdog.
		e.faultStats.WatchdogReasserts++
		if e.Obs != nil {
			e.mx.reasserts.Inc(e.ctlName)
			e.noteFault("watchdog-reassert", obs.Int("at", e.gpuLevel), obs.Int("want", want))
		}
	}
	e.wantLevel = want
	e.switching = true
	from := e.gpuLevel
	start := e.sensor.Now()
	attempts, stuckN, clampedN := 0, 0, 0
	defer func() {
		e.switching = false
		if e.Obs != nil {
			e.noteSwitch(from, want, start, attempts, stuckN, clampedN)
		}
	}()

	maxRetries := e.MaxActuationRetries
	if maxRetries <= 0 {
		maxRetries = 2
	}
	backoff := e.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	maxBackoff := 8 * backoff
	for attempt := 0; ; attempt++ {
		tr := e.Faults.Transition(e.gpuLevel, want)
		d, energy := e.grid.switchCost(e.gpuLevel)
		if tr.ExtraLatency > 0 {
			d += tr.ExtraLatency
			e.faultStats.DelayedTransitions++
		}
		power := energy / d.Seconds()
		e.gpuLevel = e.Platform.ClampGPULevel(tr.Applied)
		e.switches++
		attempts++
		if tr.Stuck {
			e.faultStats.StuckTransitions++
			stuckN++
		}
		if tr.Clamped {
			e.faultStats.ClampedTransitions++
			clampedN++
		}
		if e.Obs != nil && (tr.Stuck || tr.Clamped || tr.ExtraLatency > 0) {
			name := "dvfs-delayed"
			if tr.Stuck {
				name = "dvfs-stuck"
			} else if tr.Clamped {
				name = "dvfs-clamped"
			}
			e.noteFault(name, obs.Int("applied", e.gpuLevel), obs.Int("want", want))
		}
		e.advance(d, power, false, false, 0)
		if e.gpuLevel == want || tr.Clamped || attempt >= maxRetries {
			return
		}
		// Stuck: back off briefly (GPU idles at the unchanged frequency),
		// then retry.
		e.faultStats.ActuationRetries++
		if e.Obs != nil {
			e.mx.retries.Inc(e.ctlName)
		}
		e.advance(backoff, e.grid.idleW[e.gpuLevel], false, false, 0)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// runImage simulates one inference pass (Batch images). Host pre-processing
// of the next pass is pipelined with the GPU pass (the standard
// double-buffered inference loop), so the CPU rail burns energy concurrently
// and only extends wall time when the host becomes the bottleneck. This is
// what lets FPG-C+G save energy by down-scaling an underutilized CPU.
func (e *Executor) runImage(g *graph.Graph) {
	p := e.Platform
	batch := e.Batch
	if batch < 1 {
		batch = 1
	}

	cpuLevel := clampCPU(p, e.Ctl.CPULevel())
	fcpu := p.CPUFreqsHz[cpuLevel]
	cpuT, cpuE := p.CPUImageCost(fcpu)
	cpuT *= time.Duration(batch)
	cpuE *= float64(batch)
	cpuPower := 0.0
	if cpuT > 0 {
		cpuPower = cpuE / cpuT.Seconds()
	}
	cpuRemaining := cpuT

	// GPU pass, layer by layer, with the host rail active for the first
	// cpuRemaining of it. A layer's cost is one grid index at the applied
	// level. The pass's ledger cells are added up here and applied once at
	// pass end; they are kept whether or not this executor carries a ledger
	// while a pass is being recorded — the summary may later replay on one
	// that does.
	gr := e.gridFor(g, batch)
	cells := e.passCells[:0]
	keepCells := e.Ledger != nil || e.rec != nil
	passStart := e.sensor.Now()
	passEnergy := e.sensor.EnergyJ()
	var gpuBusy time.Duration
	for id, input := range gr.input {
		e.Ctl.BeforeLayer(g, id)
		e.applyLevel()
		if input {
			continue
		}
		cell := e.gpuLevel*gr.n + id
		c := &gr.cells[cell]
		gpuBusy += c.Time
		if keepCells {
			cells = e.addCell(cells, g, id, c.Time, gr.cellNJ[cell])
		}
		overlap := c.Time
		if overlap > cpuRemaining {
			overlap = cpuRemaining
		}
		if overlap > 0 {
			e.advance(overlap, c.PowerW+cpuPower, true, true, c.ComputeUt)
			cpuRemaining -= overlap
		}
		if rest := c.Time - overlap; rest > 0 {
			e.advance(rest, c.PowerW, true, false, c.ComputeUt)
		}
	}
	// Host-bound tail: the GPU waits for pre-processing to finish.
	if cpuRemaining > 0 {
		e.advance(cpuRemaining, gr.idleW[e.gpuLevel]+cpuPower, false, true, 0)
	}
	e.passCells = cells
	e.images += batch
	e.finishPass(g, gr.digest, gr.ref, passStart, passEnergy, gpuBusy, cells)
	if e.rec != nil {
		e.finishRecording(gr, gpuBusy, cells)
	}
}

// gridFor returns the cost grid of (g, batch) and makes it the executor's
// current grid: the shared set's when one serves this platform, else the
// private grid, rebuilt in place. Consecutive passes of one task hit the
// pointer memo.
func (e *Executor) gridFor(g *graph.Graph, batch int) *CostGrid {
	if gr := e.grid; e.gridGraph == g && gr.batch == batch && gr.platform == e.Platform {
		return gr
	}
	if e.Grids != nil && e.Grids.platform == e.Platform {
		e.grid = e.Grids.Grid(g, batch)
	} else {
		e.own = buildCostGrid(e.own, e.Platform, g, graph.Digest(g), batch)
		e.grid = e.own
	}
	e.gridGraph = g
	return e.grid
}

func clampCPU(p *hw.Platform, level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(p.CPUFreqsHz) {
		return len(p.CPUFreqsHz) - 1
	}
	return level
}

// RunTask simulates one task (images × one model) from a cold start. With
// Batch > 1, images are processed in batched passes (rounding the total up
// to a batch multiple; Result.Images reports the actual count).
func (e *Executor) RunTask(g *graph.Graph, images int) Result {
	e.reset()
	e.runImages(g, images)
	return e.result()
}

// runImages processes at least the given number of images in batched passes.
// With macro-stepping eligible (macro.go), each pass first tries the
// analytic fast-forward; misses micro-step (recording a representative pass).
// A replayed pass that ends where its summary began folds the rest of the
// task into one step.
func (e *Executor) runImages(g *graph.Graph, images int) {
	batch := e.Batch
	if batch < 1 {
		batch = 1
	}
	for done := 0; done < images; done += batch {
		if e.macroOK && e.fastForward(g, batch) {
			if e.foldRest(g, (images-done-1)/batch) {
				return
			}
			continue
		}
		e.runImage(g)
	}
}

// RunTaskFlow simulates a task flow (§3.2.2): tasks back to back with an
// idle gap between them, during which reactive governors scale down — and
// then pay their response lag when the next task arrives.
func (e *Executor) RunTaskFlow(tasks []Task, gap time.Duration) Result {
	e.reset()
	for i, t := range tasks {
		if i > 0 && gap > 0 {
			e.idle(gap)
		}
		e.runImages(t.Graph, t.Images)
	}
	return e.result()
}

// idle advances time with no work queued. In window-inert mode the whole gap
// is one advance — no window ticks can change anything.
func (e *Executor) idle(d time.Duration) {
	if e.windowInert {
		e.advance(d, e.grid.idleW[e.gpuLevel], false, false, 0)
		return
	}
	for d > 0 {
		step := e.window - e.winElapsed
		if step > d {
			step = d
		}
		e.advance(step, e.grid.idleW[e.gpuLevel], false, false, 0)
		d -= step
	}
}

func (e *Executor) result() Result {
	r := Result{
		Controller: e.Ctl.Name(),
		Platform:   e.Platform.Name,
		Images:     e.images,
		Time:       e.sensor.Now(),
		EnergyJ:    e.sensor.EnergyJ(),
		Switches:   e.switches,
		Samples:    e.sensor.Samples(),
	}
	if e.thermal != nil {
		r.PeakTempC = e.thermal.PeakC
		r.ThrottledTime = e.thermal.ThrottledTime
	}
	r.Faults = e.faultStats
	r.Passes = e.passes
	r.QoSViolations = e.qosViolations
	if e.attrib {
		r.LevelEnergyJ = append([]float64(nil), e.levelEnergy...)
		r.LevelTime = append([]time.Duration(nil), e.levelTime...)
	}
	e.obsResult(r)
	e.macroResult()
	return r
}
