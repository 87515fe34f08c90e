// Package ledger implements the energy/latency attribution ledger: it answers
// "where did the joules go" at (model digest, power block, DVFS level)
// granularity, and "what did latency look like" per model, from events the
// sim executor's step loop emits.
//
// Design constraints, inherited from the obs layer:
//
//   - Nil-safe: a nil *Ledger accepts every call and does nothing, so the
//     executor pays one pointer check per pass when attribution is off.
//   - Zero steady-state allocations: RecordSegment on an existing
//     (digest, block, level) cell touches no heap.
//   - Deterministic merge: all mergeable state is integral — event counts,
//     time.Duration busy time, energy quantized to nanojoules at record time,
//     and sketch bucket counts — so Merge is associative and commutative.
//     Splitting an event stream across any number of nodes, workers or
//     dispatch shards and merging the pieces in any order yields the same
//     ledger, and snapshots/exports walk cells in sorted key order, so equal
//     ledgers always export equal bytes.
package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"powerlens/internal/obs"
	"powerlens/internal/obs/sketch"
)

// Key addresses one attribution cell. Model is the canonical graph digest
// (graph.Digest); Block is the 0-based power block from the controller's
// frequency plan (0 when the controller has no block structure); Level is the
// GPU DVFS level the work ran at.
type Key struct {
	Model uint64
	Block int32
	Level int32
}

// cell is the mutable state behind one key. Energy is kept in integer
// nanojoules so accumulation and merging are exact and order-independent.
type cell struct {
	name     string // model name, for human-readable exports
	ops      uint64 // layer executions attributed here
	busy     time.Duration
	energyNJ uint64
}

// model aggregates per-model pass statistics.
type model struct {
	name       string
	passes     uint64
	violations uint64
	energyNJ   uint64
	lat        *sketch.Sketch // per-pass wall latency, seconds
}

// toNJ quantizes joules to nanojoules, the ledger's native unit. The
// quantization happens once per event, so it is a pure function of the event
// and never depends on accumulation order.
func toNJ(energyJ float64) uint64 {
	if energyJ <= 0 {
		return 0
	}
	return uint64(energyJ*1e9 + 0.5)
}

// Ledger accumulates attribution cells. Safe for concurrent use; the intended
// high-throughput path is one private ledger per node/worker merged at the
// end, with the mutex only there to make stray concurrent use safe rather
// than fast.
type Ledger struct {
	mu     sync.Mutex
	cells  map[Key]*cell
	models map[uint64]*model
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{cells: map[Key]*cell{}, models: map[uint64]*model{}}
}

// RecordSegment attributes one executed layer (or layer batch) to a cell.
// Steady-state calls on an existing cell allocate nothing.
func (l *Ledger) RecordSegment(k Key, name string, busy time.Duration, energyJ float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	c, ok := l.cells[k]
	if !ok {
		c = &cell{name: name}
		l.cells[k] = c
	}
	c.ops++
	c.busy += busy
	c.energyNJ += toNJ(energyJ)
	l.mu.Unlock()
}

// Quantize converts joules to the ledger's native nanojoule unit, exactly as
// RecordSegment does per event. Exported for callers that aggregate segment
// events outside the ledger (the sim cost grid quantizes each cell, and the
// executor's per-pass cells add them up) and later apply them through
// AddSegments: quantizing per event before summing keeps the aggregate equal
// to what the per-event calls would have accumulated.
func Quantize(energyJ float64) uint64 { return toNJ(energyJ) }

// AddSegments attributes an aggregated batch of layer executions to a cell
// in one call: ops executions totalling busy GPU time and energyNJ
// nanojoules (per-event quantized; see Quantize). Because cell state is
// integral, this is exactly equivalent to ops individual RecordSegment
// calls — the executor applies each pass's cells through it, micro-stepped
// or replayed.
func (l *Ledger) AddSegments(k Key, name string, ops uint64, busy time.Duration, energyNJ uint64) {
	if l == nil || ops == 0 {
		return
	}
	l.mu.Lock()
	c, ok := l.cells[k]
	if !ok {
		c = &cell{name: name}
		l.cells[k] = c
	}
	c.ops += ops
	c.busy += busy
	c.energyNJ += energyNJ
	l.mu.Unlock()
}

// RecordPass records one completed inference pass for a model: its wall
// latency, energy, and whether it violated the QoS budget.
func (l *Ledger) RecordPass(digest uint64, name string, wall time.Duration, energyJ float64, violated bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	m, ok := l.models[digest]
	if !ok {
		m = &model{name: name, lat: sketch.New()}
		l.models[digest] = m
	}
	m.passes++
	if violated {
		m.violations++
	}
	m.energyNJ += toNJ(energyJ)
	m.lat.Observe(wall.Seconds())
	l.mu.Unlock()
}

// Merge folds src into l. Cells merge by key, models by digest; the walk is
// in sorted key order so float accumulation order is reproducible. src is
// left untouched. Copies are taken under src's lock and folded under l's, so
// the two locks are never held at once.
func (l *Ledger) Merge(src *Ledger) {
	if l == nil || src == nil {
		return
	}
	type kcell struct {
		k Key
		c cell
	}
	type dmodel struct {
		d uint64
		m model
		s *sketch.Sketch
	}
	src.mu.Lock()
	cells := make([]kcell, 0, len(src.cells))
	for _, k := range sortedKeys(src.cells) {
		cells = append(cells, kcell{k, *src.cells[k]})
	}
	models := make([]dmodel, 0, len(src.models))
	for _, d := range sortedDigests(src.models) {
		m := src.models[d]
		clone := sketch.New()
		clone.Merge(m.lat)
		models = append(models, dmodel{d, *m, clone})
	}
	src.mu.Unlock()

	l.mu.Lock()
	for _, kc := range cells {
		c, ok := l.cells[kc.k]
		if !ok {
			c = &cell{name: kc.c.name}
			l.cells[kc.k] = c
		}
		c.ops += kc.c.ops
		c.busy += kc.c.busy
		c.energyNJ += kc.c.energyNJ
	}
	for _, dm := range models {
		m, ok := l.models[dm.d]
		if !ok {
			m = &model{name: dm.m.name, lat: sketch.New()}
			l.models[dm.d] = m
		}
		m.passes += dm.m.passes
		m.violations += dm.m.violations
		m.energyNJ += dm.m.energyNJ
		m.lat.Merge(dm.s)
	}
	l.mu.Unlock()
}

func sortedKeys(cells map[Key]*cell) []Key {
	ks := make([]Key, 0, len(cells))
	for k := range cells {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].less(ks[j]) })
	return ks
}

func sortedDigests(models map[uint64]*model) []uint64 {
	ds := make([]uint64, 0, len(models))
	for d := range models {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func (k Key) less(o Key) bool {
	if k.Model != o.Model {
		return k.Model < o.Model
	}
	if k.Block != o.Block {
		return k.Block < o.Block
	}
	return k.Level < o.Level
}

// CellSnapshot is one attribution cell in a snapshot, sorted by
// (model digest, block, level).
type CellSnapshot struct {
	Model   string  `json:"model"`
	Digest  string  `json:"digest"` // %016x of the graph digest
	Block   int     `json:"block"`
	Level   int     `json:"level"`
	Ops     uint64  `json:"ops"`
	BusyS   float64 `json:"busyS"`
	EnergyJ float64 `json:"energyJ"`
}

// ModelSnapshot is one model's pass statistics in a snapshot.
type ModelSnapshot struct {
	Model         string  `json:"model"`
	Digest        string  `json:"digest"`
	Passes        uint64  `json:"passes"`
	Violations    uint64  `json:"violations"`
	ViolationRate float64 `json:"violationRate"`
	EnergyJ       float64 `json:"energyJ"`
	LatencyP50S   float64 `json:"latencyP50S"`
	LatencyP90S   float64 `json:"latencyP90S"`
	LatencyP99S   float64 `json:"latencyP99S"`
	LatencyMaxS   float64 `json:"latencyMaxS"`
	// LatencySketch is the byte-stable sketch encoding (base64 in JSON).
	LatencySketch []byte `json:"latencySketch,omitempty"`
}

// Snapshot is a deterministic point-in-time copy of a ledger.
type Snapshot struct {
	Schema int             `json:"schema"`
	Cells  []CellSnapshot  `json:"cells"`
	Models []ModelSnapshot `json:"models"`
}

// SnapshotSchema identifies the ledger snapshot layout.
const SnapshotSchema = 1

// Snapshot returns the ledger's state with cells and models in sorted key
// order. Equal ledgers produce equal snapshots (and, through WriteJSON,
// equal bytes).
func (l *Ledger) Snapshot() Snapshot {
	snap := Snapshot{Schema: SnapshotSchema, Cells: []CellSnapshot{}, Models: []ModelSnapshot{}}
	if l == nil {
		return snap
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, k := range sortedKeys(l.cells) {
		c := l.cells[k]
		snap.Cells = append(snap.Cells, CellSnapshot{
			Model:   c.name,
			Digest:  fmt.Sprintf("%016x", k.Model),
			Block:   int(k.Block),
			Level:   int(k.Level),
			Ops:     c.ops,
			BusyS:   c.busy.Seconds(),
			EnergyJ: float64(c.energyNJ) / 1e9,
		})
	}
	for _, d := range sortedDigests(l.models) {
		m := l.models[d]
		ms := ModelSnapshot{
			Model:         m.name,
			Digest:        fmt.Sprintf("%016x", d),
			Passes:        m.passes,
			Violations:    m.violations,
			EnergyJ:       float64(m.energyNJ) / 1e9,
			LatencyP50S:   m.lat.Quantile(0.5),
			LatencyP90S:   m.lat.Quantile(0.9),
			LatencyP99S:   m.lat.Quantile(0.99),
			LatencyMaxS:   m.lat.Max(),
			LatencySketch: m.lat.EncodeBinary(),
		}
		if m.passes > 0 {
			ms.ViolationRate = float64(m.violations) / float64(m.passes)
		}
		snap.Models = append(snap.Models, ms)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON. Deterministic: equal
// ledgers write equal bytes.
func (l *Ledger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l.Snapshot())
}

// ExportTo publishes the ledger into an obs Registry as Prometheus-style
// families: per-cell energy/busy/ops counters and a per-model latency
// summary. Intended to be called once after a run completes (it accumulates,
// so calling it twice double-counts).
func (l *Ledger) ExportTo(r *obs.Registry) {
	if l == nil || r == nil {
		return
	}
	snap := l.Snapshot()
	energy := r.Counter("ledger_block_energy_joules_total",
		"Energy attributed to a (model, power block, DVFS level) cell.",
		"model", "block", "level")
	busy := r.Counter("ledger_block_busy_seconds_total",
		"GPU busy time attributed to a (model, power block, DVFS level) cell.",
		"model", "block", "level")
	ops := r.Counter("ledger_block_ops_total",
		"Layer executions attributed to a (model, power block, DVFS level) cell.",
		"model", "block", "level")
	passes := r.Counter("ledger_passes_total", "Completed inference passes per model.", "model")
	viol := r.Counter("ledger_pass_violations_total",
		"Passes that exceeded the QoS latency-degradation budget, per model.", "model")
	lat := r.Sketch("ledger_pass_latency_seconds", "Per-pass wall latency per model.", "model")

	for _, c := range snap.Cells {
		b, lv := fmt.Sprintf("%d", c.Block), fmt.Sprintf("%d", c.Level)
		energy.Add(c.EnergyJ, c.Model, b, lv)
		busy.Add(c.BusyS, c.Model, b, lv)
		ops.Add(float64(c.Ops), c.Model, b, lv)
	}
	for _, m := range snap.Models {
		passes.Add(float64(m.Passes), m.Model)
		viol.Add(float64(m.Violations), m.Model)
		if sk, err := sketch.Decode(m.LatencySketch); err == nil {
			lat.MergeFrom(sk, m.Model)
		}
	}
}
