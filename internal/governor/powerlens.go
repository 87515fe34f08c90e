package governor

import (
	"sort"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/obs/audit"
	"powerlens/internal/sim"
)

// FrequencyPlan maps instrumentation points — the first layer ID of each
// power block — to preset GPU levels. It is the artifact the offline
// PowerLens pipeline produces for one model on one platform.
type FrequencyPlan struct {
	Model  string
	Points map[int]int // layer ID at block start → GPU ladder level
}

// NumPoints returns the number of instrumentation points.
func (fp *FrequencyPlan) NumPoints() int { return len(fp.Points) }

// compileSchedule flattens a plan onto a graph: sched[layerID] holds the
// pre-clamped target level at that instrumentation point, or -1 where the
// plan sets nothing. The per-layer hook then costs one slice index instead of
// a map probe — the executor calls it for every op of every image, so this
// is the single hottest lookup of the online path. buf is reused when it has
// capacity. Points outside [0, len(layers)) are unreachable through the
// executor (it only passes real layer IDs) and are dropped.
func compileSchedule(plan *FrequencyPlan, g *graph.Graph, p *hw.Platform, buf []int) []int {
	n := len(g.Layers)
	sched := buf[:0]
	for i := 0; i < n; i++ {
		sched = append(sched, -1)
	}
	for id, lvl := range plan.Points {
		if id >= 0 && id < n {
			sched[id] = p.ClampGPULevel(lvl)
		}
	}
	return sched
}

// compileBlocks flattens a plan's instrumentation points into a per-layer
// power-block index: block b covers the layers from its start point (points
// in sorted layer order) up to the next one. Layers before the first point
// belong to block 0, matching the offline pipeline's convention that the
// first block starts at the graph's first layer. buf is reused when it has
// capacity. This is what keys the attribution ledger's cells, so it must be a
// pure function of (plan, graph).
func compileBlocks(plan *FrequencyPlan, g *graph.Graph, buf []int) []int {
	n := len(g.Layers)
	starts := make([]int, 0, len(plan.Points))
	for id := range plan.Points {
		if id >= 0 && id < n {
			starts = append(starts, id)
		}
	}
	sort.Ints(starts)
	blocks := buf[:0]
	b := 0
	for i := 0; i < n; i++ {
		for b < len(starts) && starts[b] <= i {
			b++
		}
		blk := b - 1
		if blk < 0 {
			blk = 0
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// macroNoPlanDigest keys passes during which a plan controller applies no
// level changes at all (it holds no plan for the running graph). Any two
// such passes are behaviourally identical regardless of which plan the
// controller carries, so they deliberately share one digest.
const macroNoPlanDigest = 1

// hashSchedule digests a compiled flat schedule and block index (FNV-1a over
// the slice values and lengths). Equal digests mean identical per-layer
// level sequences and block attribution — exactly what the executor's
// flow-summary cache keys on (sim.MacroSteppable.MacroPlanDigest).
func hashSchedule(sched, blocks []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(sched)))
	for _, v := range sched {
		mix(uint64(int64(v)))
	}
	mix(uint64(len(blocks)))
	for _, v := range blocks {
		mix(uint64(int64(v)))
	}
	if h == macroNoPlanDigest {
		h++ // keep the no-plan sentinel unambiguous
	}
	return h
}

// PowerLens applies a FrequencyPlan at its preset instrumentation points.
// It needs no runtime feedback: frequencies are decided offline per power
// block, which is what eliminates the reactive baselines' ping-pong and lag.
type PowerLens struct {
	Plan *FrequencyPlan

	platform *hw.Platform
	level    int

	// Compiled block→level schedule and layer→block index for
	// (Plan, graph, platform); rebuilt lazily whenever any of the three
	// changes. The graph digest is cached alongside so audited plan
	// applications pay zero per-layer digest cost.
	schedPlan     *FrequencyPlan
	schedGraph    *graph.Graph
	schedPlatform *hw.Platform
	sched         []int
	blocks        []int
	schedDigest   uint64
	planDigest    uint64 // hashSchedule of (sched, blocks), for macro keys

	// Decision-audit sink (installed by the executor via SetAudit; nil — the
	// default — keeps BeforeLayer on the exact unaudited path).
	audit      *audit.Recorder
	auditTrack int
}

// NewPowerLens returns a controller executing the given plan.
func NewPowerLens(plan *FrequencyPlan) *PowerLens {
	return &PowerLens{Plan: plan}
}

func (pl *PowerLens) Name() string { return "PowerLens" }

// SetAudit implements sim.AuditSink: with a recorder attached, every plan
// application (an instrumentation point presetting a block's frequency) is
// recorded with the graph's digest, the power block, and the applied level.
func (pl *PowerLens) SetAudit(rec *audit.Recorder, track int) {
	pl.audit = rec
	pl.auditTrack = track
}

// Reset implements sim.Controller.
func (pl *PowerLens) Reset(p *hw.Platform) {
	pl.platform = p
	pl.level = p.NumGPULevels() / 2
}

// GPULevel implements sim.Controller.
func (pl *PowerLens) GPULevel() int { return pl.level }

// CPULevel implements sim.Controller: PowerLens only configures the GPU
// (§3.2.1); the host CPU stays on its ondemand governor (busy → top level).
func (pl *PowerLens) CPULevel() int { return len(pl.platform.CPUFreqsHz) - 1 }

// BeforeLayer implements sim.Controller: at an instrumentation point, preset
// the block's target frequency. Plans for other models are ignored, so one
// controller instance can serve a mixed task flow given per-model plans. The
// steady-state cost is one slice index per layer (the plan is compiled to a
// flat schedule on first use per graph).
func (pl *PowerLens) BeforeLayer(g *graph.Graph, layerID int) {
	if pl.Plan == nil || pl.Plan.Model != g.Name {
		return
	}
	pl.ensureSched(g)
	if layerID >= 0 && layerID < len(pl.sched) {
		if lvl := pl.sched[layerID]; lvl >= 0 {
			pl.level = lvl
			if pl.audit != nil {
				pl.audit.RecordApply(pl.auditTrack, "powerlens", pl.Plan.Model,
					pl.schedDigest, pl.blocks[layerID], layerID, lvl)
			}
		}
	}
}

// ensureSched rebuilds the compiled schedules when (Plan, graph, platform)
// changed since the last compile.
func (pl *PowerLens) ensureSched(g *graph.Graph) {
	if pl.schedPlan != pl.Plan || pl.schedGraph != g || pl.schedPlatform != pl.platform {
		pl.sched = compileSchedule(pl.Plan, g, pl.platform, pl.sched)
		pl.blocks = compileBlocks(pl.Plan, g, pl.blocks)
		pl.schedDigest = graph.Digest(g)
		pl.planDigest = hashSchedule(pl.sched, pl.blocks)
		pl.schedPlan, pl.schedGraph, pl.schedPlatform = pl.Plan, g, pl.platform
	}
}

// MacroPlanDigest implements sim.MacroSteppable: the digest of the compiled
// schedule the controller applies to g (a pure function of plan, graph and
// platform, reusing the flat schedules BeforeLayer compiles). Graphs the
// plan does not cover share the no-plan sentinel — such passes apply no
// level changes whatever the plan.
func (pl *PowerLens) MacroPlanDigest(g *graph.Graph) uint64 {
	if pl.Plan == nil || pl.Plan.Model != g.Name {
		return macroNoPlanDigest
	}
	pl.ensureSched(g)
	return pl.planDigest
}

// MacroAdvancePass implements sim.MacroSteppable: after a replayed pass the
// plan position is warm and the level sits at the pass's exit level —
// exactly where micro-stepping the pass would have left it.
func (pl *PowerLens) MacroAdvancePass(g *graph.Graph, exitGPULevel int) {
	if pl.Plan == nil || pl.Plan.Model != g.Name {
		return // no instrumentation point fired; nothing changed
	}
	pl.ensureSched(g)
	pl.level = exitGPULevel
}

// BlockIndex implements sim.BlockResolver: the power block the layer belongs
// to under the active plan, or 0 when the plan does not apply to this graph.
// Steady-state cost is one slice index, same as BeforeLayer.
func (pl *PowerLens) BlockIndex(g *graph.Graph, layerID int) int {
	if pl.Plan == nil || pl.Plan.Model != g.Name || pl.platform == nil {
		return 0
	}
	pl.ensureSched(g)
	if layerID >= 0 && layerID < len(pl.blocks) {
		return pl.blocks[layerID]
	}
	return 0
}

// OnWindow implements sim.Controller (no reactive behaviour).
func (pl *PowerLens) OnWindow(sim.WindowStats) {}

var (
	_ sim.Controller     = (*PowerLens)(nil)
	_ sim.BlockResolver  = (*PowerLens)(nil)
	_ sim.AuditSink      = (*PowerLens)(nil)
	_ sim.MacroSteppable = (*PowerLens)(nil)
)

// MultiPlan serves a task flow of different models: it dispatches
// BeforeLayer to the plan matching the running graph.
type MultiPlan struct {
	// Plans maps a model name to its plan. It must not change during a run:
	// the plan serving a graph is resolved once per graph change and kept
	// until the next Reset.
	Plans map[string]*FrequencyPlan

	platform *hw.Platform
	level    int

	// Compiled schedules, one per graph served (bounded; see scheduleFor),
	// with a last-graph memo so the per-layer hooks skip both the plan and
	// the schedule maps while the graph stays the same. lastSched is nil
	// when no plan covers lastGraph. Reset clears the memo.
	compiled  map[*graph.Graph]*mpSchedule
	lastGraph *graph.Graph
	lastSched *mpSchedule

	// Decision-audit sink (installed by the executor via SetAudit).
	audit      *audit.Recorder
	auditTrack int
}

// mpSchedule is one graph's compiled schedule and block index plus the
// inputs they were compiled from (for staleness checks). The graph digest is
// computed once per entry so audited applications stay digest-free per layer.
type mpSchedule struct {
	plan       *FrequencyPlan
	platform   *hw.Platform
	sched      []int
	blocks     []int
	digest     uint64
	planDigest uint64 // hashSchedule of (sched, blocks), for macro keys
}

// maxCompiledSchedules bounds MultiPlan's schedule cache; serving loops that
// rebuild graph objects per request cannot grow it without bound.
const maxCompiledSchedules = 64

// NewMultiPlan returns a PowerLens controller holding one plan per model.
func NewMultiPlan(plans map[string]*FrequencyPlan) *MultiPlan {
	return &MultiPlan{Plans: plans}
}

func (m *MultiPlan) Name() string { return "PowerLens" }

// SetAudit implements sim.AuditSink.
func (m *MultiPlan) SetAudit(rec *audit.Recorder, track int) {
	m.audit = rec
	m.auditTrack = track
}

// Reset implements sim.Controller. It also drops the last-graph memo, so a
// plan swapped into Plans between runs takes effect.
func (m *MultiPlan) Reset(p *hw.Platform) {
	m.platform = p
	m.level = p.NumGPULevels() / 2
	m.lastGraph, m.lastSched = nil, nil
}

// GPULevel implements sim.Controller.
func (m *MultiPlan) GPULevel() int { return m.level }

// CPULevel implements sim.Controller.
func (m *MultiPlan) CPULevel() int { return len(m.platform.CPUFreqsHz) - 1 }

// BeforeLayer implements sim.Controller.
func (m *MultiPlan) BeforeLayer(g *graph.Graph, layerID int) {
	e := m.scheduleFor(g)
	if e == nil {
		return
	}
	if layerID >= 0 && layerID < len(e.sched) {
		if lvl := e.sched[layerID]; lvl >= 0 {
			m.level = lvl
			if m.audit != nil {
				m.audit.RecordApply(m.auditTrack, "powerlens", e.plan.Model,
					e.digest, e.blocks[layerID], layerID, lvl)
			}
		}
	}
}

// scheduleFor returns g's compiled schedule under the plan Plans holds for
// it, or nil when no plan covers g. The plan is looked up, and the schedule
// built or refreshed if missing or stale, only when the graph differs from
// the last call's; repeat calls for the same graph cost one pointer compare.
func (m *MultiPlan) scheduleFor(g *graph.Graph) *mpSchedule {
	if g == m.lastGraph {
		return m.lastSched
	}
	m.lastGraph, m.lastSched = g, nil
	plan, ok := m.Plans[g.Name]
	if !ok {
		return nil
	}
	if m.compiled == nil {
		m.compiled = make(map[*graph.Graph]*mpSchedule)
	}
	e := m.compiled[g]
	if e == nil {
		if len(m.compiled) >= maxCompiledSchedules {
			m.compiled = make(map[*graph.Graph]*mpSchedule)
		}
		e = &mpSchedule{digest: graph.Digest(g)}
		m.compiled[g] = e
	}
	if e.plan != plan || e.platform != m.platform {
		e.sched = compileSchedule(plan, g, m.platform, e.sched)
		e.blocks = compileBlocks(plan, g, e.blocks)
		e.planDigest = hashSchedule(e.sched, e.blocks)
		e.plan, e.platform = plan, m.platform
	}
	m.lastSched = e
	return e
}

// MacroPlanDigest implements sim.MacroSteppable (see PowerLens).
func (m *MultiPlan) MacroPlanDigest(g *graph.Graph) uint64 {
	e := m.scheduleFor(g)
	if e == nil {
		return macroNoPlanDigest
	}
	return e.planDigest
}

// MacroAdvancePass implements sim.MacroSteppable.
func (m *MultiPlan) MacroAdvancePass(g *graph.Graph, exitGPULevel int) {
	if m.scheduleFor(g) == nil {
		return
	}
	m.level = exitGPULevel
}

// BlockIndex implements sim.BlockResolver: the power block under the plan
// matching the running graph, or 0 when no plan applies.
func (m *MultiPlan) BlockIndex(g *graph.Graph, layerID int) int {
	if m.platform == nil {
		return 0
	}
	e := m.scheduleFor(g)
	if e == nil {
		return 0
	}
	if layerID >= 0 && layerID < len(e.blocks) {
		return e.blocks[layerID]
	}
	return 0
}

// OnWindow implements sim.Controller.
func (m *MultiPlan) OnWindow(sim.WindowStats) {}

var (
	_ sim.Controller     = (*MultiPlan)(nil)
	_ sim.BlockResolver  = (*MultiPlan)(nil)
	_ sim.AuditSink      = (*MultiPlan)(nil)
	_ sim.MacroSteppable = (*MultiPlan)(nil)
)
