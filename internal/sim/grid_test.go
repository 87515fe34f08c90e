package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/ledger"
)

// sameBits reports whether two floats are the same IEEE-754 value, bit for
// bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameOpCost(a, b hw.OpCost) bool {
	return a.Time == b.Time && sameBits(a.EnergyJ, b.EnergyJ) &&
		sameBits(a.PowerW, b.PowerW) && sameBits(a.ComputeUt, b.ComputeUt)
}

// TestCostGridMatchesDirectModel pins the grid's construction contract: every
// cell and its ledger nanojoules, every per-level idle power and switch cost,
// the reference pass time and the digest equal what the direct model calls
// return, bit for bit, on both platforms, every evaluation model, and batches
// 1 and 4.
func TestCostGridMatchesDirectModel(t *testing.T) {
	for _, p := range hw.Platforms() {
		fmax := p.MaxGPUFreq()
		for _, name := range models.Names() {
			g := models.MustBuild(name)
			for _, batch := range []int{1, 4} {
				gr := NewCostGrid(p, g, batch)
				if gr.digest != graph.Digest(g) || gr.batch != batch || gr.platform != p {
					t.Fatalf("%s/%s/b%d: identity wrong: digest %x batch %d", p.Name, name, batch, gr.digest, gr.batch)
				}
				var ref time.Duration
				for id, l := range g.Layers {
					if l.Kind == graph.OpInput {
						if !gr.input[id] {
							t.Fatalf("%s/%s: input layer %d not marked", p.Name, name, id)
						}
						for lvl := range p.GPUFreqsHz {
							if c, nj := gr.Cost(lvl, id), gr.cellNJ[lvl*gr.n+id]; c != (hw.OpCost{}) || nj != 0 {
								t.Fatalf("%s/%s: input layer %d costs %+v (%d nJ) at level %d", p.Name, name, id, c, nj, lvl)
							}
						}
						continue
					}
					if gr.input[id] {
						t.Fatalf("%s/%s: op layer %d marked as input", p.Name, name, id)
					}
					flops, bytes := l.BatchCost(batch)
					for lvl, f := range p.GPUFreqsHz {
						want := p.GPUOpCost(flops, bytes, f)
						if got := gr.Cost(lvl, id); !sameOpCost(got, want) {
							t.Fatalf("%s/%s/b%d: layer %d level %d: grid %+v, GPUOpCost %+v", p.Name, name, batch, id, lvl, got, want)
						}
						if got, wantNJ := gr.cellNJ[lvl*gr.n+id], ledger.Quantize(want.PowerW*want.Time.Seconds()); got != wantNJ {
							t.Fatalf("%s/%s/b%d: layer %d level %d: %d nJ, want %d", p.Name, name, batch, id, lvl, got, wantNJ)
						}
					}
					ref += p.GPUOpCost(flops, bytes, fmax).Time
				}
				if gr.ref != ref {
					t.Fatalf("%s/%s/b%d: reference %v, want %v", p.Name, name, batch, gr.ref, ref)
				}
				for lvl, f := range p.GPUFreqsHz {
					if !sameBits(gr.idleW[lvl], p.GPUIdlePower(f)) {
						t.Fatalf("%s level %d: idle %v, want %v", p.Name, lvl, gr.idleW[lvl], p.GPUIdlePower(f))
					}
					d, e := gr.switchCost(lvl)
					wd, we := p.SwitchCost(f)
					if d != wd || !sameBits(e, we) {
						t.Fatalf("%s level %d: switch %v/%v, want %v/%v", p.Name, lvl, d, e, wd, we)
					}
				}
			}
		}
	}
}

func TestCostGridAmortizesWeights(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19() // weight-heavy FC tail
	n := len(g.Layers) - 1
	const lvl = 8

	t1, e1 := NewCostGrid(p, g, 1).segment(0, n, lvl)
	t8, e8 := NewCostGrid(p, g, 8).segment(0, n, lvl)

	// Batch-8 must cost less than 8x batch-1 in both time and energy
	// (weight traffic amortizes), but more than 1x.
	if e8 >= 8*e1 {
		t.Fatalf("batch energy %.3f >= 8x single %.3f: no amortization", e8, 8*e1)
	}
	if e8 <= e1 {
		t.Fatal("batch-8 must cost more total energy than batch-1")
	}
	if t8 >= 8*t1 || t8 <= t1 {
		t.Fatalf("batch time %v outside (1x, 8x) of %v", t8, t1)
	}
	// Per-image EE must improve with batch.
	if 8/e8 <= 1/e1 {
		t.Fatalf("per-image EE did not improve: %.4f vs %.4f", 8/e8, 1/e1)
	}
}

func TestCostGridBatchOneMatchesSegmentCost(t *testing.T) {
	p := hw.AGX()
	g := models.ResNet34()
	n := len(g.Layers) - 1
	gr := NewCostGrid(p, g, 1)
	for lvl, f := range p.GPUFreqsHz {
		t1, e1 := SegmentCost(p, g, 0, n, f)
		tb, eb := gr.segment(0, n, lvl)
		if t1 != tb || !sameBits(e1, eb) {
			t.Fatalf("level %d: batch-1 grid must equal SegmentCost: %v/%v vs %v/%v", lvl, tb, eb, t1, e1)
		}
	}
}

// TestCostGridsSharedAcrossExecutors runs executors on one grid set from
// several goroutines (run it under -race): every result equals a standalone
// executor's, graphs rebuilt per worker share grids by digest, and the set
// builds exactly one grid per (digest, batch). An executor on another
// platform ignores the set.
func TestCostGridsSharedAcrossExecutors(t *testing.T) {
	p := hw.TX2()
	names := []string{"alexnet", "mobilenet_v3", "resnet34"}
	batches := []int{1, 2}
	run := func(e *Executor, g *graph.Graph, batch int) Result {
		e.Batch = batch
		return e.RunTask(g, 3)
	}
	want := map[string][]Result{}
	for _, name := range names {
		for _, batch := range batches {
			e := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
			e.SensorPeriod = 0
			want[name] = append(want[name], run(e, models.MustBuild(name), batch))
		}
	}

	set := NewCostGrids(p)
	const workers = 6
	got := make([]map[string][]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
			e.SensorPeriod = 0
			e.Grids = set
			got[w] = map[string][]Result{}
			for i := range names {
				name := names[(i+w)%len(names)]
				g := models.MustBuild(name)
				for _, batch := range batches {
					got[w][name] = append(got[w][name], run(e, g, batch))
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("worker %d differs from standalone executors:\ngot  %+v\nwant %+v", w, got[w], want)
		}
	}
	if n := set.Len(); n != len(names)*len(batches) {
		t.Fatalf("set built %d grids, want one per (digest, batch) = %d", n, len(names)*len(batches))
	}

	agx := NewExecutor(hw.AGX(), &fixedCtl{level: 3})
	agx.SensorPeriod = 0
	agx.Grids = set
	ref := NewExecutor(hw.AGX(), &fixedCtl{level: 3})
	ref.SensorPeriod = 0
	g := models.AlexNet()
	if a, b := agx.RunTask(g, 2), ref.RunTask(g, 2); !reflect.DeepEqual(a, b) {
		t.Fatalf("executor on another platform used the set:\ngot  %+v\nwant %+v", a, b)
	}
	if n := set.Len(); n != len(names)*len(batches) {
		t.Fatalf("another platform's executor added to the set: %d grids", n)
	}
}

// TestGridPassCellsMatchPerLayerSegments pins the per-pass ledger cells: a
// run's ledger cells equal a reference ledger fed one RecordSegment per
// executed layer from the direct cost model, across a mid-pass level switch
// and two power blocks, unbatched and batched.
func TestGridPassCellsMatchPerLayerSegments(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	const lo, hi, split = 2, 6, 5
	for _, batch := range []int{1, 2} {
		e := NewExecutor(p, &macroCtlT{lo: lo, hi: hi, splitAt: split})
		e.SensorPeriod = 0
		e.Batch = batch
		e.Ledger = ledger.New()
		r := e.RunTask(g, 4)

		ref := ledger.New()
		d := graph.Digest(g)
		for pass := 0; pass < r.Passes; pass++ {
			for id, l := range g.Layers {
				if l.Kind == graph.OpInput {
					continue
				}
				lvl, blk := lo, 0
				if id >= split {
					lvl, blk = hi, 1
				}
				flops, bytes := l.BatchCost(batch)
				c := p.GPUOpCost(flops, bytes, p.GPUFreqsHz[lvl])
				ref.RecordSegment(ledger.Key{Model: d, Block: int32(blk), Level: int32(lvl)},
					g.Name, c.Time, c.PowerW*c.Time.Seconds())
			}
		}
		got, want := e.Ledger.Snapshot().Cells, ref.Snapshot().Cells
		if len(want) != 2 {
			t.Fatalf("reference has %d cells, want 2", len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: pass cells differ from per-layer segments:\ngot  %+v\nwant %+v", batch, got, want)
		}
	}
}

// TestLedgerRunTaskAllocsOnlyResultCopies pins the per-pass cell buffer: a
// warm executor with a ledger attached allocates only the two per-level
// slices Result hands out, whatever the number of passes and layers.
func TestLedgerRunTaskAllocsOnlyResultCopies(t *testing.T) {
	p := hw.TX2()
	e := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
	e.SensorPeriod = 0
	e.Ledger = ledger.New()
	g := models.AlexNet()
	e.RunTask(g, 4) // warm: grid, cell buffer, ledger cells and sketch

	allocs := testing.AllocsPerRun(10, func() { e.RunTask(g, 4) })
	if allocs != 2 {
		t.Fatalf("warm ledger RunTask allocated %.0f times per run, want 2 (LevelEnergyJ, LevelTime)", allocs)
	}
}

// TestCostGridsClaimsEachKeyOnce hammers one set from many goroutines, each
// asking for overlapping (graph, batch) keys in its own order through its own
// graph objects. Builds run outside the set's lock, one claim per key: every
// caller of a key must get the same grid, and the set must hold exactly one
// grid per key. Run it under -race.
func TestCostGridsClaimsEachKeyOnce(t *testing.T) {
	p := hw.TX2()
	names := []string{"alexnet", "mobilenet_v3", "resnet34", "vgg16"}
	batches := []int{1, 2}
	set := NewCostGrids(p)
	const workers = 16
	got := make([][]*CostGrid, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*CostGrid, len(names)*len(batches))
			rng := rand.New(rand.NewSource(int64(w)))
			for _, k := range rng.Perm(len(got[w])) {
				g := models.MustBuild(names[k/len(batches)])
				got[w][k] = set.Grid(g, batches[k%len(batches)])
			}
		}(w)
	}
	wg.Wait()
	for k := range got[0] {
		if got[0][k] == nil {
			t.Fatalf("key %d: nil grid", k)
		}
		for w := 1; w < workers; w++ {
			if got[w][k] != got[0][k] {
				t.Fatalf("key %d: worker %d got grid %p, worker 0 got %p", k, w, got[w][k], got[0][k])
			}
		}
	}
	if n := set.Len(); n != len(names)*len(batches) {
		t.Fatalf("set holds %d grids, want one per key = %d", n, len(names)*len(batches))
	}
}
