package sim

import (
	"math"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
)

// CostTable memoizes the segment costs of one (platform, graph) pair across
// the whole GPU ladder. The dataset generator's oracle sweep evaluates every
// candidate block of every grid cell at every ladder level; without a table
// that re-derives the same per-layer roofline costs (voltage-curve pow/exp
// included) grid×blocks×levels times per network. The table reads each
// (layer, level) cost from a batch-1 CostGrid, then answers segment queries
// from a (startID, endID, level) memo, so repeated blocks across grid cells
// cost a map hit and fresh blocks cost one addition per layer.
//
// Summation semantics are deliberately identical to SegmentCost: a segment's
// time and energy are accumulated per layer in ascending layer-ID order
// (input layers contribute exact zeros), never rearranged into prefix-sum
// differences, so every result is bit-identical to the uncached path and the
// dataset goldens cannot move.
//
// A CostTable is not safe for concurrent use; the generator builds one per
// network inside each worker.
type CostTable struct {
	grid *CostGrid

	seg map[segKey]segCost

	// Hits and Misses count segment-memo outcomes (bench/test visibility).
	Hits, Misses int

	scores []float64 // OptimalSegmentLevel scratch
}

type segKey struct{ start, end, level int }

type segCost struct {
	t time.Duration
	e float64
}

// NewCostTable builds the batch-1 cost grid for g on p. The sweep keys
// nothing on the graph, so the grid carries no digest: hashing a fresh random
// network costs about as much as pricing it.
func NewCostTable(p *hw.Platform, g *graph.Graph) *CostTable {
	return &CostTable{
		grid:   buildCostGrid(nil, p, g, 0, 1),
		seg:    make(map[segKey]segCost),
		scores: make([]float64, p.NumGPULevels()),
	}
}

// Platform returns the platform the table was built for.
func (ct *CostTable) Platform() *hw.Platform { return ct.grid.platform }

// SegmentCost returns the time and energy of executing layers [startID,
// endID] at ladder level lvl — the memoized equivalent of the package-level
// SegmentCost at p.GPUFreqsHz[lvl].
func (ct *CostTable) SegmentCost(startID, endID, lvl int) (time.Duration, float64) {
	key := segKey{startID, endID, lvl}
	if c, ok := ct.seg[key]; ok {
		ct.Hits++
		return c.t, c.e
	}
	ct.Misses++
	t, e := ct.grid.segment(startID, endID, lvl)
	ct.seg[key] = segCost{t, e}
	return t, e
}

// OptimalSegmentLevel sweeps the whole ladder over the memoized segment
// costs; it returns exactly what the package-level OptimalSegmentLevel
// returns for the same segment.
func (ct *CostTable) OptimalSegmentLevel(startID, endID int) (best int, energies []float64) {
	energies = make([]float64, len(ct.scores))
	scores := ct.scores
	best = 0
	for i := range scores {
		t, e := ct.SegmentCost(startID, endID, i)
		energies[i] = e
		scores[i] = e * math.Pow(t.Seconds(), PerfWeight)
		if scores[i] < scores[best] {
			best = i
		}
	}
	return best, energies
}
