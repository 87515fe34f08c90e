package sim

import (
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/obs/ledger"
)

// DefaultQoSBudget is the allowed per-pass GPU-time degradation versus the
// max-frequency reference before a pass counts as a QoS violation (§4.2's
// latency-constraint framing): a pass violates when its GPU busy time exceeds
// ref × (1 + budget). The reference excludes host time so a host-bound tail
// never charges the DVFS policy with a violation it did not cause.
const DefaultQoSBudget = 0.05

// BlockResolver is implemented by controllers that carry a power-block
// structure (PowerLens frequency plans): it maps a layer to the 0-based block
// it belongs to, so attribution cells can be keyed on the plan's blocks. The
// executor treats controllers without it as a single block 0.
type BlockResolver interface {
	BlockIndex(g *graph.Graph, layerID int) int
}

// attribReset prepares the per-run attribution scratch.
func (e *Executor) attribReset() {
	e.passes, e.qosViolations = 0, 0
	e.attrib = e.TrackLevels || e.Ledger != nil || e.SLO != nil
	e.blocks, _ = e.Ctl.(BlockResolver)
	if !e.attrib {
		return
	}
	n := e.Platform.NumGPULevels()
	if cap(e.levelEnergy) >= n {
		e.levelEnergy = e.levelEnergy[:n]
		e.levelTime = e.levelTime[:n]
		clear(e.levelEnergy)
		clear(e.levelTime)
	} else {
		e.levelEnergy = make([]float64, n)
		e.levelTime = make([]time.Duration, n)
	}
}

// cellDelta is one ledger cell's aggregated pass delta: the layers of one
// pass that ran in one (power block, DVFS level). Cell state is integral
// (ops, duration, per-layer-quantized nanojoules), so adding a delta with
// ledger.AddSegments equals recording its layers one by one.
type cellDelta struct {
	block    int32
	level    int32
	ops      uint64
	busy     time.Duration
	energyNJ uint64
}

// addCell adds one executed layer, busy for busy and costing nj ledger
// nanojoules at the applied level (CostGrid.cellNJ: energy quantized per
// layer, exactly as the ledger quantizes a single segment), to the pass's
// cells. The scan starts at the newest cell: consecutive layers usually share
// a block and a level.
func (e *Executor) addCell(cells []cellDelta, g *graph.Graph, layerID int, busy time.Duration, nj uint64) []cellDelta {
	var block int32
	if e.blocks != nil {
		block = int32(e.blocks.BlockIndex(g, layerID))
	}
	level := int32(e.gpuLevel)
	for i := len(cells) - 1; i >= 0; i-- {
		if d := &cells[i]; d.block == block && d.level == level {
			d.ops++
			d.busy += busy
			d.energyNJ += nj
			return cells
		}
	}
	return append(cells, cellDelta{block: block, level: level, ops: 1, busy: busy, energyNJ: nj})
}

// violates is the QoS verdict on a pass busy on the GPU for gpuBusy: it
// violates when gpuBusy exceeds ref, the max-frequency reference pass time
// (CostGrid.ref), by more than the QoS budget. Without a reference no pass
// violates.
func (e *Executor) violates(ref, gpuBusy time.Duration) bool {
	if ref <= 0 {
		return false
	}
	budget := e.QoSBudget
	if budget <= 0 {
		budget = DefaultQoSBudget
	}
	return gpuBusy > ref+time.Duration(float64(ref)*budget)
}

// finishPass judges and records one completed inference pass of the graph
// with the given digest, micro-stepped or replayed, and applies its ledger
// cells. The violation verdict compares the pass's GPU busy time against ref,
// the max-frequency reference pass time (CostGrid.ref); wall latency —
// including host tails — is what the ledger's latency sketch and the SLO
// tracker record.
func (e *Executor) finishPass(g *graph.Graph, digest uint64, ref time.Duration, passStart time.Duration, passEnergyJ float64, gpuBusy time.Duration, cells []cellDelta) {
	e.passes++
	violated := e.violates(ref, gpuBusy)
	if violated {
		e.qosViolations++
	}
	if e.Ledger == nil && e.SLO == nil {
		return
	}
	if e.Ledger != nil {
		for i := range cells {
			c := &cells[i]
			e.Ledger.AddSegments(ledger.Key{Model: digest, Block: c.block, Level: c.level},
				g.Name, c.ops, c.busy, c.energyNJ)
		}
	}
	now := e.sensor.Now()
	wall := now - passStart
	energy := e.sensor.EnergyJ() - passEnergyJ
	e.Ledger.RecordPass(digest, g.Name, wall, energy, violated)
	if e.SLO != nil {
		deg := 0.0
		if ref > 0 {
			deg = float64(gpuBusy)/float64(ref) - 1
		}
		e.SLO.RecordPass(g.Name, now, wall, deg, energy, violated)
	}
}
