// Macro-stepping: analytic task fast-forward for cluster-scale dispatch.
//
// A PowerLens-style plan controller makes one inference pass a pure function
// of (graph, compiled plan, batch, entry DVFS levels): the per-layer level
// sequence is preset, so the energy/time/ops/level-occupancy deltas of the
// pass are fully deterministic. Micro-stepping one representative pass once
// and caching its advance events as a FlowSummary lets every later identical
// pass be applied analytically — clock, power-sensor accumulators, ledger
// cells and pass counters move in one shot instead of per op.
//
// The fast path is held to a bit-identity contract: a macro-stepped run must
// be DeepEqual to the micro-stepped oracle, including every float. Floating
// point addition is not associative, so whole-pass deltas cannot be folded
// into single adds; instead the summary stores the exact per-advance
// increments (powerW×dt products, quantized ledger nanojoules) and replays
// them in order against the same accumulators. Integer state (durations, op
// counts) is associative and is bulk-added. See DESIGN.md §16 for the
// determinism proof sketch and the demotion rules.
package sim

import (
	"sync"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
)

// MacroSteppable is implemented by controllers whose passes the executor may
// fast-forward. The contract: BeforeLayer is the only hook that changes the
// requested levels, and the level sequence over a pass is a pure function of
// (graph, plan digest, entry levels) — true of the plan governors, never of
// the reactive baselines.
type MacroSteppable interface {
	Controller

	// MacroPlanDigest returns a stable digest of the schedule the controller
	// would apply to g — equal digests must mean identical per-layer level
	// sequences from any given entry level. ok=false demotes the executor to
	// micro-stepping (e.g. a guard serving fallback decisions).
	MacroPlanDigest(g *graph.Graph) (digest uint64, ok bool)

	// MacroWindowInert reports that OnWindow is a pure no-op and the level
	// requested between instrumentation points never changes at a window
	// tick. The executor then skips window segmentation entirely, making
	// pass event sequences independent of their window offset — whole tasks
	// fast-forward no matter how their passes straddle window boundaries.
	MacroWindowInert() bool

	// MacroAdvancePass folds one replayed pass into controller state,
	// leaving it exactly where micro-stepping the pass would have: plan
	// position warm, current level at the pass's exit level.
	MacroAdvancePass(g *graph.Graph, exitGPULevel int)
}

// summaryKey addresses one cached pass. Platform is compared by pointer
// (cost tables are part of the key's meaning); graph and plan are digests so
// rebuilt-but-identical graphs and plans share entries; the entry levels pin
// the switch sequence and the CPU-side costs.
type summaryKey struct {
	platform *hw.Platform
	graph    uint64
	plan     uint64
	batch    int
	entryGPU int
	cpu      int
}

// macroEvent is one recorded advance: the exact increments micro-stepping
// adds to the float accumulators (precomputed products of the same operands,
// hence the same bits) plus the integer state replay needs.
type macroEvent struct {
	dur     time.Duration
	eInc    float64 // powerW × dt — energy/winEnergy/levelEnergy increment
	cInc    float64 // computeUt × dt — winCompute increment (0 when GPU idle)
	level   int32   // GPU level during the event
	gpuBusy bool
	cpuBusy bool
}

// FlowSummary is one micro-stepped representative pass, replayable against
// any executor state that matches its key (and, in windowed mode, leaves the
// pass strictly inside the current window).
type FlowSummary struct {
	wall       time.Duration // whole-pass wall time
	ref        time.Duration // max-frequency reference pass time (QoS baseline)
	gpuBusy    time.Duration // GPU busy total (QoS verdict + window busy delta)
	cpuBusy    time.Duration // host busy total (window busy delta)
	exitGPU    int           // applied GPU level after the pass
	switches   int           // DVFS switches paid during the pass
	images     int           // images per pass (the batch size)
	lastPowerW float64       // rail power over the final event (sensor carry)
	events     []macroEvent
	cells      []cellDelta // the pass's ledger cells (see attrib.go)
}

// Wall returns the pass's wall time (exported for diagnostics).
func (s *FlowSummary) Wall() time.Duration { return s.wall }

// SummaryCacheStats reports cache effectiveness counters.
type SummaryCacheStats struct {
	Hits    uint64 // passes fast-forwarded from a cached summary
	Misses  uint64 // lookups that found no summary (micro-stepped)
	Fills   uint64 // summaries recorded and committed
	Aborts  uint64 // recordings abandoned (a window tick split the pass)
	Demoted uint64 // boundary demotions of an otherwise cached pass
}

// SummaryCache is the shared per-(platform, graph, plan, batch, entry-level)
// FlowSummary store. Safe for concurrent use: cluster runs hand one cache to
// every node executor and every dry-run prober. Fills are single-flight —
// the first executor to miss a key records it, concurrent missers just
// micro-step — so a thundering herd never records the same pass twice.
type SummaryCache struct {
	mu      sync.Mutex
	entries map[summaryKey]*FlowSummary
	filling map[summaryKey]bool
	stats   SummaryCacheStats
}

// NewSummaryCache returns an empty cache.
func NewSummaryCache() *SummaryCache {
	return &SummaryCache{
		entries: map[summaryKey]*FlowSummary{},
		filling: map[summaryKey]bool{},
	}
}

// lookup returns the committed summary for k, or nil. Counts a hit or miss.
func (c *SummaryCache) lookup(k summaryKey) *FlowSummary {
	c.mu.Lock()
	s := c.entries[k]
	if s != nil {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	return s
}

// beginFill claims k for recording. False when a summary already exists or
// another executor is mid-recording (single-flight).
func (c *SummaryCache) beginFill(k summaryKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[k] != nil || c.filling[k] {
		return false
	}
	c.filling[k] = true
	return true
}

// commit publishes a recorded summary and releases the fill claim.
func (c *SummaryCache) commit(k summaryKey, s *FlowSummary) {
	c.mu.Lock()
	delete(c.filling, k)
	c.entries[k] = s
	c.stats.Fills++
	c.mu.Unlock()
}

// abortFill releases the claim without publishing (the recording pass was
// split by a window tick); a later pass may try again.
func (c *SummaryCache) abortFill(k summaryKey) {
	c.mu.Lock()
	delete(c.filling, k)
	c.stats.Aborts++
	c.mu.Unlock()
}

func (c *SummaryCache) noteDemoted() {
	c.mu.Lock()
	c.stats.Demoted++
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache's effectiveness counters.
func (c *SummaryCache) Stats() SummaryCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of committed summaries.
func (c *SummaryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// macroRecorder captures one representative pass while it micro-steps. The
// pass's ledger cells come from the step loop's own aggregation at pass end.
type macroRecorder struct {
	key        summaryKey
	events     []macroEvent
	startNow   time.Duration
	switches0  int
	cpuBusy    time.Duration
	lastPowerW float64
}

// note records one advance call (the executor guarantees no window split can
// occur on a recorded pass — a tick aborts the recording instead).
func (r *macroRecorder) note(d time.Duration, powerW, computeUt float64, level int, gpuBusy, cpuBusy bool) {
	sec := d.Seconds()
	r.events = append(r.events, macroEvent{
		dur:     d,
		eInc:    powerW * sec,
		cInc:    computeUt * sec,
		level:   int32(level),
		gpuBusy: gpuBusy,
		cpuBusy: cpuBusy,
	})
	if cpuBusy {
		r.cpuBusy += d
	}
	r.lastPowerW = powerW
}

// macroReset derives the run's macro/window modes from the attached sinks.
// Called from reset after thermal state is up.
func (e *Executor) macroReset() {
	e.rec = nil
	e.macroCtl, _ = e.Ctl.(MacroSteppable)
	// Window-inert mode: with a plan controller and nothing observing the
	// window structure, window segmentation is pure bookkeeping — OnWindow
	// no-ops and applyLevel at a tick is a no-op by the MacroSteppable
	// contract — so the executor skips it. This makes pass event sequences
	// independent of their offset inside a window, which is what lets whole
	// tasks (with passes longer than a window) fast-forward.
	e.windowInert = e.macroCtl != nil && e.macroCtl.MacroWindowInert() &&
		e.Obs == nil && e.Faults == nil && e.thermal == nil
	// Fast-forward eligibility (the demotion set): anything that observes or
	// perturbs individual steps forces micro-stepping — fault injection
	// (every Transition/SensorWindow call draws from the seeded stream),
	// per-switch/per-window observability spans, per-apply audit records,
	// thermal integration, and the power-sample trace.
	e.macroOK = e.Summaries != nil && e.macroCtl != nil &&
		e.Obs == nil && e.Faults == nil && e.thermal == nil &&
		e.Audit == nil && e.SensorPeriod <= 0
}

// fastForward applies one whole pass analytically if an exact summary is
// cached for the executor's current state. On a miss it claims the key and
// records the micro-stepped pass that follows. Returns false to micro-step.
func (e *Executor) fastForward(g *graph.Graph, batch int) bool {
	plan, ok := e.macroCtl.MacroPlanDigest(g)
	if !ok {
		return false // non-nominal controller state (e.g. guard on fallback)
	}
	// A replayed pass needs no cost grid: the key carries the graph digest
	// and the summary the reference pass time.
	digest := graph.Digest(g)
	k := summaryKey{
		platform: e.Platform,
		graph:    digest,
		plan:     plan,
		batch:    batch,
		entryGPU: e.gpuLevel,
		cpu:      clampCPU(e.Platform, e.Ctl.CPULevel()),
	}
	s := e.Summaries.lookup(k)
	if s == nil {
		if e.Summaries.beginFill(k) {
			e.rec = &macroRecorder{
				key:       k,
				startNow:  e.sensor.Now(),
				switches0: e.switches,
			}
		}
		return false
	}
	// Windowed mode (e.g. a guard wrapping the plan): a pass that would
	// reach or cross the window boundary must micro-step so the tick fires
	// at the exact simulated instant.
	if !e.windowInert && e.winElapsed+s.wall >= e.window {
		e.Summaries.noteDemoted()
		return false
	}
	e.applySummary(g, digest, s)
	return true
}

// abortRecording abandons an in-flight recording (a window tick fired inside
// the pass, so its events would not be offset-independent).
func (e *Executor) abortRecording() {
	e.Summaries.abortFill(e.rec.key)
	e.rec = nil
}

// finishRecording publishes the just-micro-stepped pass, priced from gr, as
// a summary, with a copy of the pass's ledger cells.
func (e *Executor) finishRecording(gr *CostGrid, gpuBusy time.Duration, cells []cellDelta) {
	r := e.rec
	e.rec = nil
	e.Summaries.commit(r.key, &FlowSummary{
		wall:       e.sensor.Now() - r.startNow,
		ref:        gr.ref,
		gpuBusy:    gpuBusy,
		cpuBusy:    r.cpuBusy,
		exitGPU:    e.gpuLevel,
		switches:   e.switches - r.switches0,
		images:     gr.batch,
		lastPowerW: r.lastPowerW,
		events:     r.events,
		cells:      append([]cellDelta(nil), cells...),
	})
}

// applySummary replays one cached pass against the executor's accumulators.
// Float chains (sensor energy, window energy/compute, per-level energy) are
// replayed per event with the exact increments micro-stepping would add —
// bit-identical by construction; integer state is bulk-added.
func (e *Executor) applySummary(g *graph.Graph, digest uint64, s *FlowSummary) {
	passStart := e.sensor.Now()
	passEnergy := e.sensor.EnergyJ()

	en := passEnergy
	if e.windowInert && !e.attrib {
		// Hot serving shape (plan controller, no attribution): the replay is
		// a single float-accumulation sweep.
		for i := range s.events {
			en += s.events[i].eInc
		}
	} else {
		for i := range s.events {
			ev := &s.events[i]
			en += ev.eInc
			if !e.windowInert {
				e.winEnergy += ev.eInc
				e.winCompute += ev.cInc
			}
			if e.attrib {
				e.levelEnergy[ev.level] += ev.eInc
				e.levelTime[ev.level] += ev.dur
			}
		}
	}
	if !e.windowInert {
		e.winElapsed += s.wall
		e.winGPUBusy += s.gpuBusy
		e.winCPUBusy += s.cpuBusy
	}
	e.sensor.FastForward(s.wall, en, s.lastPowerW, e.Platform.GPUFreqsHz[s.exitGPU])

	e.gpuLevel = s.exitGPU
	e.wantLevel = s.exitGPU
	e.switches += s.switches
	e.images += s.images
	e.macroCtl.MacroAdvancePass(g, s.exitGPU)
	e.finishPass(g, digest, s.ref, passStart, passEnergy, s.gpuBusy, s.cells)
}
