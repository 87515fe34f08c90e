package sim

import (
	"sync"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/obs/ledger"
)

// CostGrid is the immutable cost table of one (platform, graph, batch): the
// roofline hw.OpCost of every layer at every GPU ladder level, plus the
// op-independent costs of each level (idle power, DVFS switch energy), the
// graph's canonical digest, and the max-frequency reference pass time. It is
// the unit the paper's oracle sweeps ("each block … deployed at all
// frequencies", §2.2), and what the executor steps: micro-stepping a layer is
// one index into the grid.
//
// Every value is computed exactly as the direct call computes it — cell
// (lvl, id) is GPUOpCost(BatchCost(batch), GPUFreqsHz[lvl]), idle power is
// GPUIdlePower and switch energy SwitchCost at that frequency — with the
// voltage curve evaluated once per level (hw.GPUTerms) instead of once per
// cell. Results read through a grid are therefore bit-identical to the
// uncached model.
//
// Layer i of the grid is g.Layers[i], whose ID is i for every graph the graph
// package builds or decodes (graph.Validate).
type CostGrid struct {
	platform *hw.Platform
	batch    int
	digest   uint64 // graph.Digest of the graph (0 when built without one)
	n        int    // layers per level row

	cells   []hw.OpCost   // [lvl*n + id]; OpInput layers hold the zero cost
	cellNJ  []uint64      // [lvl*n + id]: each cell's energy in ledger nanojoules
	input   []bool        // OpInput layers: the hook fires, no GPU work
	ref     time.Duration // pass time at fmax: top-level times summed in layer order
	idleW   []float64     // GPUIdlePower per level
	switchJ []float64     // SwitchCost energy per level (the stall lasts SwitchLatency)
}

// NewCostGrid builds the cost grid of g at the given batch size on p (batch
// < 1 means 1).
func NewCostGrid(p *hw.Platform, g *graph.Graph, batch int) *CostGrid {
	return buildCostGrid(nil, p, g, graph.Digest(g), batch)
}

// buildCostGrid fills a grid for (p, g, batch) carrying the given digest,
// reusing dst's storage when dst is non-nil. Only a grid that was never
// published may be reused: the executor's private single-slot grid. A nil g
// yields a grid with per-level costs only.
func buildCostGrid(dst *CostGrid, p *hw.Platform, g *graph.Graph, digest uint64, batch int) *CostGrid {
	if batch < 1 {
		batch = 1
	}
	gr := dst
	if gr == nil {
		gr = &CostGrid{}
	}
	levels := p.NumGPULevels()
	n := 0
	if g != nil {
		n = len(g.Layers)
	}
	*gr = CostGrid{
		platform: p,
		batch:    batch,
		digest:   digest,
		n:        n,
		cells:    resize(gr.cells, levels*n),
		cellNJ:   resize(gr.cellNJ, levels*n),
		input:    resize(gr.input, n),
		idleW:    resize(gr.idleW, levels),
		switchJ:  resize(gr.switchJ, levels),
	}
	// The voltage curve once per level; each layer's batched FLOPs and bytes
	// once per layer.
	var tbuf [16]hw.GPUTerms
	terms := tbuf[:0]
	for lvl, f := range p.GPUFreqsHz {
		ft := p.GPUTermsAt(f)
		terms = append(terms, ft)
		gr.idleW[lvl] = p.GPUIdlePowerAt(ft)
		_, gr.switchJ[lvl] = p.SwitchCost(f)
	}
	for id := 0; id < n; id++ {
		l := g.Layers[id]
		gr.input[id] = l.Kind == graph.OpInput
		if gr.input[id] {
			for lvl := range terms {
				gr.cells[lvl*n+id] = hw.OpCost{}
			}
			continue
		}
		flops, bytes := l.BatchCost(batch)
		for lvl, ft := range terms {
			gr.cells[lvl*n+id] = p.GPUOpCostAt(ft, flops, bytes)
		}
	}
	// Each cell's ledger energy, quantized per layer exactly as the ledger
	// quantizes one segment, so a pass's ledger cells add integers.
	for i, c := range gr.cells {
		gr.cellNJ[i] = ledger.Quantize(c.PowerW * c.Time.Seconds())
	}
	if n > 0 && levels > 0 {
		for _, c := range gr.row(levels - 1) {
			gr.ref += c.Time
		}
	}
	return gr
}

// resize returns s with length n, reusing its backing array when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Cost returns the cost of layer id at ladder level lvl (the zero cost for
// an OpInput layer).
func (gr *CostGrid) Cost(lvl, id int) hw.OpCost { return gr.cells[lvl*gr.n+id] }

// row returns level lvl's per-layer costs.
func (gr *CostGrid) row(lvl int) []hw.OpCost { return gr.cells[lvl*gr.n : (lvl+1)*gr.n] }

// segment sums the time and energy of layers [startID, endID] at level lvl in
// ascending layer order — SegmentCost's summation order, so the sums carry
// its bits (OpInput layers add exact zeros).
func (gr *CostGrid) segment(startID, endID, lvl int) (time.Duration, float64) {
	var t time.Duration
	var e float64
	for _, c := range gr.row(lvl)[startID : endID+1] {
		t += c.Time
		e += c.EnergyJ
	}
	return t, e
}

// switchCost returns the duration and energy of one DVFS switch away from
// level lvl (SwitchCost at its frequency).
func (gr *CostGrid) switchCost(lvl int) (time.Duration, float64) {
	return gr.platform.SwitchLatency, gr.switchJ[lvl]
}

// gridKey addresses one grid of a CostGrids set.
type gridKey struct {
	digest uint64
	batch  int
}

// CostGrids is a concurrency-safe set of cost grids for one platform, keyed
// by (graph digest, batch). A cluster run builds one set and hands it to
// every node executor and dry-run probe through Executor.Grids, so each
// distinct model is priced once per run instead of once per executor. The
// first caller to ask for a key claims it under the set's lock and builds
// the grid outside it, so no key is ever built twice and only callers of the
// same key wait for a build; grids are immutable once built, so readers
// share them without locking.
//
// A set lives as long as its owner holds it; there is no process-wide set.
type CostGrids struct {
	platform *hw.Platform

	mu    sync.Mutex
	grids map[gridKey]*gridSlot
}

// gridSlot is one key's claim: the grid, built once.
type gridSlot struct {
	once sync.Once
	gr   *CostGrid
}

// NewCostGrids returns an empty grid set serving platform p.
func NewCostGrids(p *hw.Platform) *CostGrids {
	return &CostGrids{platform: p, grids: map[gridKey]*gridSlot{}}
}

// Grid returns the set's grid for (g, batch), building it on first use.
func (s *CostGrids) Grid(g *graph.Graph, batch int) *CostGrid {
	if batch < 1 {
		batch = 1
	}
	k := gridKey{digest: graph.Digest(g), batch: batch}
	s.mu.Lock()
	slot := s.grids[k]
	if slot == nil {
		slot = &gridSlot{}
		s.grids[k] = slot
	}
	s.mu.Unlock()
	slot.once.Do(func() { slot.gr = buildCostGrid(nil, s.platform, g, k.digest, batch) })
	return slot.gr
}

// Len returns the number of grids the set has built or is building.
func (s *CostGrids) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.grids)
}
