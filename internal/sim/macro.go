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
// counts) is associative and is bulk-added. The hot shape's one float chain,
// the sensor energy, is replayed in one integer add on the float's bit
// pattern wherever that provably lands on the sweep's bits (closedForm). See
// DESIGN.md §16 for the determinism proof sketch and the demotion rules.
package sim

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
)

// MacroSteppable is implemented by controllers whose passes the executor may
// fast-forward. The contract: BeforeLayer is the only hook that changes the
// requested levels, and the level sequence over a pass is a pure function of
// (graph, plan digest, entry levels) — true of the plan governors, never of
// the reactive baselines. OnWindow must change nothing, whatever the stats:
// the executor skips window ticks for these controllers, so one that acts at
// window ticks (governor.Guard) must not implement this interface.
type MacroSteppable interface {
	Controller

	// MacroPlanDigest returns a stable digest of the schedule the controller
	// would apply to g — equal digests must mean identical per-layer level
	// sequences from any given entry level.
	MacroPlanDigest(g *graph.Graph) uint64

	// MacroAdvancePass folds one replayed pass into controller state,
	// leaving it exactly where micro-stepping the pass would have: plan
	// position warm, current level at the pass's exit level. It must be
	// idempotent: a second call with the same (graph, exit level) leaves the
	// controller unchanged. A task whose replayed pass ends at its own entry
	// level then folds all its remaining passes with one call (foldRest).
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

// macroEvent is one recorded advance: the exact energy increment
// micro-stepping adds (the precomputed product of the same operands, hence
// the same bits) plus what per-level attribution needs.
type macroEvent struct {
	dur   time.Duration
	eInc  float64 // powerW × dt — energy/levelEnergy increment
	level int32   // GPU level during the event
}

// FlowSummary is one micro-stepped representative pass, replayable against
// any executor state that matches its key.
type FlowSummary struct {
	wall       time.Duration // whole-pass wall time
	ref        time.Duration // max-frequency reference pass time (QoS baseline)
	gpuBusy    time.Duration // GPU busy total (QoS verdict)
	exitGPU    int           // applied GPU level after the pass
	switches   int           // DVFS switches paid during the pass
	images     int           // images per pass (the batch size)
	lastPowerW float64       // rail power over the final event (sensor carry)
	events     []macroEvent
	cells      []cellDelta // the pass's ledger cells (see attrib.go)

	// Closed-form sensor replay (closedForm): ulps[i] is the number of ulps
	// the events add to any energy whose biased exponent is ulpLo+i, or
	// noUlps where that number depends on more than the binade. From
	// ulpLo+len(ulps) up the events add nothing. ulpLo is 0 when the events
	// admit no table.
	ulpLo uint64
	ulps  []uint64
}

// noUlps marks a binade the closed form cannot answer for.
const noUlps = math.MaxUint64

// ulpTable builds a summary's closed-form table from its event list: one
// entry per binade, from one above the pass total's (a start below that
// always leaves its binade) to the first in which every increment is below
// half an ulp. No table when an increment is negative, NaN or infinite, or
// when that range is empty (a total of 2^53 increments or more).
func ulpTable(events []macroEvent) (lo uint64, ulps []uint64) {
	var total, maxInc float64
	for i := range events {
		x := events[i].eInc
		if !(x >= 0 && x <= math.MaxFloat64) {
			return 0, nil
		}
		total += x
		if x > maxInc {
			maxInc = x
		}
	}
	lo = math.Float64bits(total)>>52 + 1
	// 2^(E−1076), half an ulp at biased exponent E, exceeds maxInc from
	// E = exponent(maxInc) + 54 on.
	top := math.Float64bits(maxInc)>>52 + 54
	if top > 2047 {
		top = 2047
	}
	if lo >= top {
		return 0, nil
	}
	ulps = make([]uint64, top-lo)
	for i := range ulps {
		ulps[i] = binadeUlps(events, lo+uint64(i))
	}
	return lo, ulps
}

// binadeUlps returns Σ rne(eInc/u), the ulps the events add to an energy in
// the binade [2^K, 2^(K+1)) of biased exponent exp, with u = 2^(K−52). It
// returns noUlps when the sum could depend on the energy's own bits: an
// increment of 2^K or more, an increment that is a rounding tie at u (ties
// go to even, which reads the energy's last bit), or a sum of 2^52 ulps or
// more, which always leaves the binade.
func binadeUlps(events []macroEvent, exp uint64) uint64 {
	pb := exp << 52
	p := math.Float64frombits(pb) // 2^K
	u := p * 0x1p-52
	var m uint64
	for i := range events {
		x := events[i].eInc
		if x >= p {
			return noUlps
		}
		// Fast2Sum: with x < p, q−p is x rounded to a multiple of u and
		// x−(q−p) is exact, so a tie shows as a remainder of exactly u/2.
		q := p + x
		if r := x - (q - p); r+r == u || r+r == -u {
			return noUlps
		}
		m += math.Float64bits(q) - pb
		if m >= 1<<52 {
			return noUlps
		}
	}
	return m
}

// binadeStep returns the ulps one pass adds to an energy with bit pattern b
// while the sum stays in b's binade: the table's entry, or 0 at and above
// its top. ok is false for a zero, subnormal, negative or non-finite
// energy, a binade below the table or marked noUlps, and a summary without
// a table.
func (s *FlowSummary) binadeStep(b uint64) (m uint64, ok bool) {
	exp := b >> 52 // 2048 and up when the sign bit is set
	if s.ulpLo == 0 || exp == 0 || exp >= 2047 || exp < s.ulpLo {
		return 0, false
	}
	i := exp - s.ulpLo
	if i >= uint64(len(s.ulps)) {
		return 0, true
	}
	m = s.ulps[i]
	return m, m != noUlps
}

// closedForm returns the energy the event sweep reaches from en as one
// integer add on en's bit pattern. In en's binade floats are u apart with
// consecutive bit patterns, so without ties each step adds rne(eInc/u) to
// the pattern for as long as the sum stays in the binade; increments are
// non-negative, so it stayed there iff the final pattern keeps en's
// exponent. ok is false — sweep instead — where binadeStep cannot answer or
// the sum would leave the binade.
func (s *FlowSummary) closedForm(en float64) (float64, bool) {
	b := math.Float64bits(en)
	m, ok := s.binadeStep(b)
	if !ok || (b+m)>>52 != b>>52 {
		return 0, false
	}
	return math.Float64frombits(b + m), true
}

// sweep adds the pass's energy increments to en one by one, as
// micro-stepping does.
func (s *FlowSummary) sweep(en float64) float64 {
	for i := range s.events {
		en += s.events[i].eInc
	}
	return en
}

// foldEnergy returns the energy n successive sweeps reach from en, and how
// many of the n passes it swept. Inside a binade every pass adds the same M
// ulps and partial sums only rise, so j passes add j·M for as long as the
// final pattern keeps en's exponent: each step takes as many passes as stay
// strictly below the next power of two (j·M < 2^52, so the add cannot
// carry past the exponent field) and then starts again from the new
// binade. A pass that would reach the power of two, and any pass the table
// cannot answer for (see binadeStep), is swept; M = 0 takes every
// remaining pass.
func (s *FlowSummary) foldEnergy(en float64, n int) (float64, int) {
	swept := 0
	for n > 0 {
		b := math.Float64bits(en)
		m, ok := s.binadeStep(b)
		if ok && m == 0 {
			break
		}
		if ok {
			room := (b>>52+1)<<52 - 1 - b // ulps left below the next power of two
			if j := min(uint64(n), room/m); j > 0 {
				en = math.Float64frombits(b + j*m)
				n -= int(j)
				continue
			}
		}
		en = s.sweep(en)
		n--
		swept++
	}
	return en, swept
}

// SummaryCacheStats reports cache effectiveness counters. Executors count
// their hits privately and add them when each run ends, so after a run
// Hits+Misses is the number of passes that tried the fast path; during a run
// the counts lag. A demoted executor leaves no count.
type SummaryCacheStats struct {
	Hits    uint64 // passes fast-forwarded from a cached summary
	Misses  uint64 // lookups that found no summary (micro-stepped)
	Fills   uint64 // summaries recorded and committed
	Aborts  uint64 // always 0: no window tick can split a recording
	Demoted uint64 // always 0: no cached pass demotes at a window boundary
}

// SummaryCache is the shared per-(platform, graph, plan, batch, entry-level)
// FlowSummary store. Safe for concurrent use: cluster runs hand one cache to
// every node executor and every dry-run prober. Fills are single-flight —
// the first executor to miss a key records it, concurrent missers just
// micro-step — so a thundering herd never records the same pass twice.
// Lookups take no lock: commit replaces the committed map whole, which
// stays cheap because a run commits a few dozen summaries.
type SummaryCache struct {
	entries atomic.Pointer[map[summaryKey]*FlowSummary]
	mu      sync.Mutex
	filling map[summaryKey]bool
	stats   SummaryCacheStats
}

// NewSummaryCache returns an empty cache.
func NewSummaryCache() *SummaryCache {
	c := &SummaryCache{filling: map[summaryKey]bool{}}
	c.entries.Store(&map[summaryKey]*FlowSummary{})
	return c
}

// lookup returns the committed summary for k, or nil.
func (c *SummaryCache) lookup(k summaryKey) *FlowSummary {
	return (*c.entries.Load())[k]
}

// beginFill counts a miss and claims k for recording. False when a summary
// already exists or another executor is mid-recording (single-flight).
func (c *SummaryCache) beginFill(k summaryKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Misses++
	if c.lookup(k) != nil || c.filling[k] {
		return false
	}
	c.filling[k] = true
	return true
}

// commit publishes a recorded summary in a copy of the committed map and
// releases the fill claim.
func (c *SummaryCache) commit(k summaryKey, s *FlowSummary) {
	c.mu.Lock()
	old := *c.entries.Load()
	m := make(map[summaryKey]*FlowSummary, len(old)+1)
	for key, sum := range old {
		m[key] = sum
	}
	m[k] = s
	c.entries.Store(&m)
	delete(c.filling, k)
	c.stats.Fills++
	c.mu.Unlock()
}

// addRunHits adds one run's privately counted hits.
func (c *SummaryCache) addRunHits(hits uint64) {
	c.mu.Lock()
	c.stats.Hits += hits
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
	return len(*c.entries.Load())
}

// macroRecorder captures one representative pass while it micro-steps. The
// pass's ledger cells come from the step loop's own aggregation at pass end.
type macroRecorder struct {
	key        summaryKey
	events     []macroEvent
	startNow   time.Duration
	switches0  int
	lastPowerW float64
}

// note records one advance call. Recording runs in window-inert mode only,
// so no window tick can split a recorded pass.
func (r *macroRecorder) note(d time.Duration, powerW float64, level int) {
	r.events = append(r.events, macroEvent{dur: d, eInc: powerW * d.Seconds(), level: int32(level)})
	r.lastPowerW = powerW
}

// macroReset derives the run's macro/window modes from the attached sinks.
// Called from reset after thermal state is up.
func (e *Executor) macroReset() {
	e.rec = nil
	// The cache may have been swapped since the last run.
	e.memoKey, e.memo = summaryKey{}, nil
	e.hits = 0
	e.macroCtl, _ = e.Ctl.(MacroSteppable)
	// Window-inert mode: with a plan controller and nothing observing the
	// window structure, window segmentation is pure bookkeeping — OnWindow
	// no-ops and applyLevel at a tick is a no-op by the MacroSteppable
	// contract — so the executor skips it. This makes pass event sequences
	// independent of their offset inside a window, which is what lets whole
	// tasks (with passes longer than a window) fast-forward.
	e.windowInert = e.macroCtl != nil && e.Obs == nil && e.Faults == nil && e.thermal == nil
	// Fast-forward eligibility (the demotion set): anything that observes or
	// perturbs individual steps forces micro-stepping — fault injection
	// (every Transition/SensorWindow call draws from the seeded stream),
	// per-switch/per-window observability spans and thermal integration, all
	// outside window-inert mode, per-apply audit records and the sample trace.
	e.macroOK = e.Summaries != nil && e.windowInert && e.Audit == nil && e.SensorPeriod <= 0
}

// fastForward applies one whole pass analytically if an exact summary is
// cached for the executor's current state. On a miss it claims the key and
// records the micro-stepped pass that follows. Returns false to micro-step.
func (e *Executor) fastForward(g *graph.Graph, batch int) bool {
	// A replayed pass needs no cost grid: the key carries the graph digest
	// and the summary the reference pass time.
	digest := graph.Digest(g)
	k := summaryKey{
		platform: e.Platform,
		graph:    digest,
		plan:     e.macroCtl.MacroPlanDigest(g),
		batch:    batch,
		entryGPU: e.gpuLevel,
		cpu:      clampCPU(e.Platform, e.Ctl.CPULevel()),
	}
	// Consecutive passes of a task share a key. A committed summary is
	// never replaced (beginFill refuses a key that has one), so the memo
	// cannot go stale.
	s := e.memo
	if s == nil || k != e.memoKey {
		if s = e.Summaries.lookup(k); s == nil {
			if e.Summaries.beginFill(k) {
				e.rec = &macroRecorder{
					key:       k,
					startNow:  e.sensor.Now(),
					switches0: e.switches,
				}
			}
			return false
		}
		e.memoKey, e.memo = k, s
	}
	e.hits++
	e.applySummary(g, digest, s)
	return true
}

// foldRest applies the task's n remaining passes at once when the pass just
// replayed left the executor at the state its key started from: exit level
// equal to entry level, the same CPU level and the same plan digest. A pass
// is a pure function of its key and MacroAdvancePass is idempotent, so every
// remaining pass would then replay the same summary. Only the hot shape
// folds (no attribution); there the passes' only float chain is the sensor
// energy, which foldEnergy moves, and the rest is integer state scaled by n.
// False when there is nothing to fold.
func (e *Executor) foldRest(g *graph.Graph, n int) bool {
	if n <= 0 || e.attrib {
		return false
	}
	k := &e.memoKey
	if e.gpuLevel != k.entryGPU || clampCPU(e.Platform, e.Ctl.CPULevel()) != k.cpu ||
		e.macroCtl.MacroPlanDigest(g) != k.plan {
		return false
	}
	s := e.memo
	en, _ := s.foldEnergy(e.sensor.EnergyJ(), n)
	e.sensor.FastForward(time.Duration(n)*s.wall, en, s.lastPowerW, e.Platform.GPUFreqsHz[s.exitGPU])
	e.switches += n * s.switches
	e.images += n * s.images
	e.passes += n
	if e.violates(s.ref, s.gpuBusy) {
		e.qosViolations += n
	}
	e.hits += uint64(n)
	e.macroCtl.MacroAdvancePass(g, s.exitGPU)
	return true
}

// finishRecording publishes the just-micro-stepped pass, priced from gr, as
// a summary, with a copy of the pass's ledger cells and its closed-form
// table, built here so that the summary is immutable once shared.
func (e *Executor) finishRecording(gr *CostGrid, gpuBusy time.Duration, cells []cellDelta) {
	r := e.rec
	e.rec = nil
	lo, ulps := ulpTable(r.events)
	e.Summaries.commit(r.key, &FlowSummary{
		wall:       e.sensor.Now() - r.startNow,
		ref:        gr.ref,
		gpuBusy:    gpuBusy,
		exitGPU:    e.gpuLevel,
		switches:   e.switches - r.switches0,
		images:     gr.batch,
		lastPowerW: r.lastPowerW,
		events:     r.events,
		cells:      append([]cellDelta(nil), cells...),
		ulpLo:      lo,
		ulps:       ulps,
	})
}

// macroResult adds the run's privately counted hits to the cache's stats,
// once, as the run returns.
func (e *Executor) macroResult() {
	if e.hits != 0 {
		e.Summaries.addRunHits(e.hits)
		e.hits = 0
	}
}

// applySummary replays one cached pass against the executor's accumulators.
// Float chains (sensor energy, per-level energy) are replayed per event with
// the exact increments micro-stepping would add — bit-identical by
// construction — except that the hot shape's sensor energy takes the closed
// form when it can answer; integer state is bulk-added.
func (e *Executor) applySummary(g *graph.Graph, digest uint64, s *FlowSummary) {
	passStart := e.sensor.Now()
	passEnergy := e.sensor.EnergyJ()

	en := passEnergy
	if !e.attrib {
		// Hot serving shape (plan controller, no attribution): the sensor
		// energy is the only float chain, replayed in closed form or swept.
		if v, ok := s.closedForm(en); ok {
			en = v
		} else {
			en = s.sweep(en)
		}
	} else {
		for i := range s.events {
			ev := &s.events[i]
			en += ev.eInc
			e.levelEnergy[ev.level] += ev.eInc
			e.levelTime[ev.level] += ev.dur
		}
	}
	e.sensor.FastForward(s.wall, en, s.lastPowerW, e.Platform.GPUFreqsHz[s.exitGPU])

	e.gpuLevel = s.exitGPU
	e.wantLevel = s.exitGPU
	e.switches += s.switches
	e.images += s.images
	e.macroCtl.MacroAdvancePass(g, s.exitGPU)
	e.finishPass(g, digest, s.ref, passStart, passEnergy, s.gpuBusy, s.cells)
}
