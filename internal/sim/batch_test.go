package sim

import (
	"testing"
	"time"

	"powerlens/internal/hw"
	"powerlens/internal/models"
)

func TestOptimalBatchPrefersLargerBatches(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19()
	best, sweep := OptimalBatch(p, g, 16, 0)
	if len(sweep) == 0 {
		t.Fatal("empty sweep")
	}
	if best.Batch < 2 {
		t.Fatalf("weight-heavy net should prefer batch > 1, got %d", best.Batch)
	}
	// EE must be monotone non-decreasing along the unconstrained sweep for a
	// weight-heavy network.
	for i := 1; i < len(sweep); i++ {
		if sweep[i].EE < sweep[i-1].EE*0.999 {
			t.Fatalf("EE dropped along batch sweep: %+v", sweep)
		}
	}
}

func TestOptimalBatchLatencyBudget(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19()
	unbounded, _ := OptimalBatch(p, g, 16, 0)
	budget := unbounded.Latency / 2
	bounded, sweep := OptimalBatch(p, g, 16, budget)
	if bounded.Latency > budget {
		t.Fatalf("budgeted point latency %v exceeds budget %v", bounded.Latency, budget)
	}
	for _, bp := range sweep {
		if bp.Latency > budget {
			t.Fatalf("sweep point %+v violates budget", bp)
		}
	}
	if bounded.EE > unbounded.EE {
		t.Fatal("constrained optimum cannot beat unconstrained")
	}
}

func TestOptimalBatchImpossibleBudget(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19()
	best, sweep := OptimalBatch(p, g, 8, time.Nanosecond)
	if len(sweep) != 0 {
		t.Fatalf("nanosecond budget admits points: %+v", sweep)
	}
	if best.Batch != 0 {
		t.Fatalf("best should be zero-valued, got %+v", best)
	}
}

func TestExecutorBatch(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19()
	single := NewExecutor(p, &fixedCtl{level: 8})
	r1 := single.RunTask(g, 16)

	batched := NewExecutor(p, &fixedCtl{level: 8})
	batched.Batch = 8
	r8 := batched.RunTask(g, 16)

	if r8.Images != 16 || r1.Images != 16 {
		t.Fatalf("image counts: %d / %d", r1.Images, r8.Images)
	}
	// Batched execution of a weight-heavy net must be more energy
	// efficient and faster overall.
	if r8.EE() <= r1.EE() {
		t.Fatalf("batched EE %.4f <= single EE %.4f", r8.EE(), r1.EE())
	}
	if r8.Time >= r1.Time {
		t.Fatalf("batched time %v >= single %v", r8.Time, r1.Time)
	}
}

func TestExecutorBatchRoundsUp(t *testing.T) {
	p := hw.TX2()
	e := NewExecutor(p, &fixedCtl{level: 6})
	e.Batch = 8
	r := e.RunTask(models.AlexNet(), 10) // 10 images, batch 8 → 2 passes = 16
	if r.Images != 16 {
		t.Fatalf("images = %d, want 16 (rounded to batch multiple)", r.Images)
	}
}

func TestBatchCostLayer(t *testing.T) {
	g := models.VGG19()
	var fc *struct {
		flops1, bytes1, flops4, bytes4 int64
	}
	for _, l := range g.Layers {
		if l.Kind.String() == "linear" && l.Attrs.InFeatures > 10000 {
			f1, b1 := l.BatchCost(1)
			f4, b4 := l.BatchCost(4)
			fc = &struct{ flops1, bytes1, flops4, bytes4 int64 }{f1, b1, f4, b4}
			break
		}
	}
	if fc == nil {
		t.Fatal("no big FC layer found")
	}
	if fc.flops4 != 4*fc.flops1 {
		t.Fatal("FLOPs must scale with batch")
	}
	if fc.bytes4 >= 4*fc.bytes1 {
		t.Fatal("weight traffic must amortize across the batch")
	}
}
