package governor

import (
	"reflect"
	"testing"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

// planForEveryThirdLayer builds a plan touching a spread of layer IDs,
// including deliberately out-of-ladder levels the controller must clamp.
func planForEveryThirdLayer(g *graph.Graph, p *hw.Platform) *FrequencyPlan {
	points := map[int]int{}
	for i := 0; i < len(g.Layers); i += 3 {
		points[i] = (i / 3) % (p.NumGPULevels() + 2) // some past the top
	}
	return &FrequencyPlan{Model: g.Name, Points: points}
}

// mapLookupLevels replays the pre-compilation BeforeLayer semantics (map
// probe + clamp) as the oracle for the flat-schedule path.
func mapLookupLevels(pl *FrequencyPlan, g *graph.Graph, p *hw.Platform, start int) []int {
	level := start
	out := make([]int, len(g.Layers))
	for i := range g.Layers {
		if pl != nil && pl.Model == g.Name {
			if lvl, ok := pl.Points[i]; ok {
				level = p.ClampGPULevel(lvl)
			}
		}
		out[i] = level
	}
	return out
}

func TestCompiledScheduleMatchesMapLookup(t *testing.T) {
	p := hw.TX2()
	for _, name := range []string{"alexnet", "resnet34", "vit_base_32"} {
		g := models.MustBuild(name)
		plan := planForEveryThirdLayer(g, p)
		ctl := NewPowerLens(plan)
		ctl.Reset(p)
		want := mapLookupLevels(plan, g, p, ctl.GPULevel())
		got := make([]int, len(g.Layers))
		for i := range g.Layers {
			ctl.BeforeLayer(g, i)
			got[i] = ctl.GPULevel()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: compiled schedule diverges from map lookup:\ngot  %v\nwant %v", name, got, want)
		}
	}
}

func TestCompiledScheduleRecompilesOnPlanSwap(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	low := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 0}}
	high := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: p.NumGPULevels() - 1}}

	ctl := NewPowerLens(low)
	ctl.Reset(p)
	ctl.BeforeLayer(g, 0)
	if ctl.GPULevel() != 0 {
		t.Fatalf("low plan applied level %d", ctl.GPULevel())
	}
	ctl.Plan = high
	ctl.BeforeLayer(g, 0)
	if ctl.GPULevel() != p.NumGPULevels()-1 {
		t.Fatalf("swapped plan not recompiled: level %d", ctl.GPULevel())
	}
}

func TestCompiledScheduleRecompilesOnPlatformChange(t *testing.T) {
	tx2, agx := hw.TX2(), hw.AGX()
	g := models.AlexNet()
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 99}} // clamps to top
	ctl := NewPowerLens(plan)

	ctl.Reset(tx2)
	ctl.BeforeLayer(g, 0)
	if ctl.GPULevel() != tx2.NumGPULevels()-1 {
		t.Fatalf("tx2 clamp: level %d", ctl.GPULevel())
	}
	ctl.Reset(agx)
	ctl.BeforeLayer(g, 0)
	if ctl.GPULevel() != agx.NumGPULevels()-1 {
		t.Fatalf("agx clamp not recompiled: level %d, want %d", ctl.GPULevel(), agx.NumGPULevels()-1)
	}
}

// TestMultiPlanPlanSwapTakesEffectAfterReset pins the plan-resolution memo:
// MultiPlan resolves a graph's plan once per graph change, so a plan swapped
// into Plans between runs must take effect once Reset has run — and, on the
// executor, on the next task.
func TestMultiPlanPlanSwapTakesEffectAfterReset(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	top := p.NumGPULevels() - 1
	plans := map[string]*FrequencyPlan{g.Name: {Model: g.Name, Points: map[int]int{0: 0}}}
	ctl := NewMultiPlan(plans)
	ctl.Reset(p)
	ctl.BeforeLayer(g, 0)
	if ctl.GPULevel() != 0 {
		t.Fatalf("low plan applied level %d", ctl.GPULevel())
	}

	plans[g.Name] = &FrequencyPlan{Model: g.Name, Points: map[int]int{0: top}}
	ctl.Reset(p)
	ctl.BeforeLayer(g, 0)
	if ctl.GPULevel() != top {
		t.Fatalf("swapped plan not applied after Reset: level %d, want %d", ctl.GPULevel(), top)
	}

	// A graph whose plan appears between runs is picked up too.
	delete(plans, g.Name)
	ctl.Reset(p)
	mid := ctl.GPULevel()
	ctl.BeforeLayer(g, 0)
	if ctl.GPULevel() != mid {
		t.Fatalf("removed plan still applied: level %d", ctl.GPULevel())
	}
	plans[g.Name] = &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 1}}
	ctl.Reset(p)
	ctl.BeforeLayer(g, 0)
	if ctl.GPULevel() != 1 {
		t.Fatalf("added plan not applied after Reset: level %d", ctl.GPULevel())
	}

	// Through the executor: each task resets the controller.
	e := sim.NewExecutor(p, ctl)
	e.SensorPeriod = 0
	first := e.RunTask(g, 2)
	plans[g.Name] = &FrequencyPlan{Model: g.Name, Points: map[int]int{0: top}}
	second := e.RunTask(g, 2)
	want := sim.NewExecutor(p, NewMultiPlan(map[string]*FrequencyPlan{g.Name: plans[g.Name]}))
	want.SensorPeriod = 0
	if r := want.RunTask(g, 2); !reflect.DeepEqual(second, r) || reflect.DeepEqual(first, second) {
		t.Fatalf("swapped plan did not take effect on the next task:\nfirst  %+v\nsecond %+v\nwant   %+v", first, second, r)
	}
}

func TestMultiPlanCompiledMatchesMapLookup(t *testing.T) {
	p := hw.TX2()
	g1, g2 := models.AlexNet(), models.MustBuild("mobilenet_v3")
	plans := map[string]*FrequencyPlan{
		g1.Name: planForEveryThirdLayer(g1, p),
		g2.Name: planForEveryThirdLayer(g2, p),
	}
	ctl := NewMultiPlan(plans)
	ctl.Reset(p)

	// Interleave the two graphs so the last-graph memo is exercised both on
	// hits and on switches.
	level := ctl.GPULevel()
	for round := 0; round < 2; round++ {
		for _, g := range []*graph.Graph{g1, g2, g1} {
			for i := range g.Layers {
				ctl.BeforeLayer(g, i)
				if lvl, ok := plans[g.Name].Points[i]; ok {
					level = p.ClampGPULevel(lvl)
				}
				if ctl.GPULevel() != level {
					t.Fatalf("%s layer %d: level %d, want %d", g.Name, i, ctl.GPULevel(), level)
				}
			}
		}
	}
}

// TestPowerLensRunTaskZeroAlloc pins the end-to-end serving fast path with
// the real plan-applying controller: warm RunTask with tracing off is
// allocation-free.
func TestPowerLensRunTaskZeroAlloc(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	ctl := NewPowerLens(planForEveryThirdLayer(g, p))
	e := sim.NewExecutor(p, ctl)
	e.SensorPeriod = 0
	e.RunTask(g, 2) // warm: compiled schedule, sensor, cost grid

	allocs := testing.AllocsPerRun(10, func() {
		e.RunTask(g, 2)
	})
	if allocs != 0 {
		t.Fatalf("warm PowerLens RunTask allocated %.0f times per run, want 0", allocs)
	}
}
