package governor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

// TestMacroPlanDigestStability pins the plan-digest contract: equal compiled
// schedules digest equal (across controller kinds and rebuilt plan objects),
// different schedules digest different, and uncovered graphs share the
// no-plan sentinel.
func TestMacroPlanDigestStability(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	mid := len(g.Layers) / 2
	planA := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 2, mid: 6}}
	planA2 := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 2, mid: 6}}
	planB := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 3, mid: 6}}

	digest := func(ctl sim.MacroSteppable) uint64 { return ctl.MacroPlanDigest(g) }

	pa := NewPowerLens(planA)
	pa.Reset(p)
	pa2 := NewPowerLens(planA2)
	pa2.Reset(p)
	pb := NewPowerLens(planB)
	pb.Reset(p)
	mp := NewMultiPlan(map[string]*FrequencyPlan{g.Name: planA})
	mp.Reset(p)

	da := digest(pa)
	if d := digest(pa2); d != da {
		t.Fatalf("rebuilt identical plan digests differ: %016x vs %016x", da, d)
	}
	if d := digest(mp); d != da {
		t.Fatalf("MultiPlan digest differs from PowerLens for the same plan: %016x vs %016x", da, d)
	}
	if d := digest(pb); d == da {
		t.Fatalf("different schedules share digest %016x", d)
	}

	// A graph the plan does not cover applies no level changes: every plan
	// controller reports the shared no-plan sentinel for it.
	other := models.MustBuild("mobilenet_v3")
	dOther := pa.MacroPlanDigest(other)
	dOther2 := pb.MacroPlanDigest(other)
	if dOther != dOther2 || dOther == da {
		t.Fatalf("no-plan sentinel broken: %016x / %016x (plan %016x)", dOther, dOther2, da)
	}
}

// TestGuardMacroDemotions pins that a guard always demotes: it acts at window
// ticks, so *Guard is not a sim.MacroSteppable in any state — nominal, on
// fallback, over a reactive inner policy, or with a plan-controller fallback.
func TestGuardMacroDemotions(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 4}}

	nominal := NewGuard(NewPowerLens(plan))
	onFallback := NewGuard(NewPowerLens(plan))
	reactive := NewGuard(NewOndemand())
	statefulFB := NewGuard(NewPowerLens(plan))
	statefulFB.Fallback = NewPowerLens(plan)
	for name, gd := range map[string]*Guard{
		"nominal": nominal, "on fallback": onFallback,
		"reactive inner": reactive, "plan-controller fallback": statefulFB,
	} {
		gd.Reset(p)
		for id := range g.Layers {
			gd.BeforeLayer(g, id)
		}
		if gd == onFallback {
			gd.fallback = true
		}
		if _, ok := sim.Controller(gd).(sim.MacroSteppable); ok {
			t.Fatalf("%s guard is a sim.MacroSteppable", name)
		}
	}
}

// TestGuardMacroRunMatchesMicro runs a guarded MultiPlan flow with a summary
// cache attached: the guard is not MacroSteppable, so the run micro-steps,
// bit-identical to the micro oracle, and leaves the cache untouched.
func TestGuardMacroRunMatchesMicro(t *testing.T) {
	p := hw.TX2()
	ga, gb := models.AlexNet(), models.MustBuild("mobilenet_v3")
	midA, midB := len(ga.Layers)/2, len(gb.Layers)/2
	newCtl := func() sim.Controller {
		return NewGuard(NewMultiPlan(map[string]*FrequencyPlan{
			ga.Name: {Model: ga.Name, Points: map[int]int{0: 2, midA: 6}},
			gb.Name: {Model: gb.Name, Points: map[int]int{0: 5, midB: 3}},
		}))
	}
	tasks := []sim.Task{
		{Graph: ga, Images: 6},
		{Graph: gb, Images: 5},
		{Graph: ga, Images: 4},
	}
	gaps := []time.Duration{35 * time.Millisecond, 90 * time.Millisecond}

	micro := sim.NewExecutor(p, newCtl())
	micro.SensorPeriod = 0
	micro.WindowPeriod = 300 * time.Millisecond
	want := micro.RunTaskFlowArrivals(tasks, gaps)

	macro := sim.NewExecutor(p, newCtl())
	macro.SensorPeriod = 0
	macro.WindowPeriod = 300 * time.Millisecond
	cache := sim.NewSummaryCache()
	macro.Summaries = cache
	got := macro.RunTaskFlowArrivals(tasks, gaps)

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("guarded macro flow differs:\nmicro %+v\nmacro %+v", want, got)
	}
	if n, st := cache.Len(), cache.Stats(); n != 0 || st != (sim.SummaryCacheStats{}) {
		t.Fatalf("guarded flow touched the summary cache: %d summaries, %+v", n, st)
	}
}

// TestPowerLensMacroRunTaskZeroAlloc extends the serving fast-path guarantee
// to macro-stepping: a warm executor fast-forwarding whole PowerLens tasks
// must stay allocation-free.
func TestPowerLensMacroRunTaskZeroAlloc(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	mid := len(g.Layers) / 2
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 2, mid: 6}}
	e := sim.NewExecutor(p, NewPowerLens(plan))
	e.SensorPeriod = 0
	e.Summaries = sim.NewSummaryCache()
	e.RunTask(g, 4)

	allocs := testing.AllocsPerRun(10, func() { e.RunTask(g, 4) })
	if allocs != 0 {
		t.Fatalf("warm macro PowerLens RunTask allocated %.0f times per run, want 0", allocs)
	}
}

// TestMacroAdvancePassIdempotent pins the MacroSteppable contract the
// executor's whole-task fold rests on: a second MacroAdvancePass with the
// same (graph, exit level) leaves the controller unchanged. Two controllers
// step the same micro-stepped pass; one then advances once, the other twice,
// and they must stay deeply equal — for the planned graph and for a graph no
// plan covers.
func TestMacroAdvancePassIdempotent(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	other := models.MustBuild("mobilenet_v3")
	mid := len(g.Layers) / 2
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 2, mid: 6}}
	plans := map[string]*FrequencyPlan{g.Name: plan}
	for _, tc := range []struct {
		name string
		new  func() sim.MacroSteppable
	}{
		{"PowerLens", func() sim.MacroSteppable { return NewPowerLens(plan) }},
		{"MultiPlan", func() sim.MacroSteppable { return NewMultiPlan(plans) }},
	} {
		for _, gr := range []*graph.Graph{g, other} {
			once, twice := tc.new(), tc.new()
			for _, c := range []sim.MacroSteppable{once, twice} {
				c.Reset(p)
				for id := range gr.Layers {
					c.BeforeLayer(gr, id)
				}
			}
			exit := once.GPULevel()
			once.MacroAdvancePass(gr, exit)
			twice.MacroAdvancePass(gr, exit)
			twice.MacroAdvancePass(gr, exit)
			if !reflect.DeepEqual(once, twice) {
				t.Fatalf("%s on %s: a second MacroAdvancePass changed the controller:\nonce  %+v\ntwice %+v",
					tc.name, gr.Name, once, twice)
			}
			if got := twice.GPULevel(); got != exit {
				t.Fatalf("%s on %s: level %d after advancing to exit level %d", tc.name, gr.Name, got, exit)
			}
		}
	}
}

// TestMacroSteppableWindowInert pins the window-inertness every
// sim.MacroSteppable promises and the executor relies on when it skips window
// segmentation: after a pass of BeforeLayer calls, OnWindow with any stats —
// NaN, infinities and out-of-range values included — leaves the controller
// deeply equal to an untouched twin, at the same GPU level.
func TestMacroSteppableWindowInert(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	other := models.MustBuild("mobilenet_v3")
	mid := len(g.Layers) / 2
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 2, mid: 6}}
	plans := map[string]*FrequencyPlan{g.Name: plan}

	nan, inf := math.NaN(), math.Inf(1)
	stats := []sim.WindowStats{
		{},
		{Period: 50 * time.Millisecond, GPUBusy: 1, CPUBusy: 0.4, AvgComputeUt: 0.7, AvgPowerW: 9.5, GPULevel: 6, CPULevel: 3},
		{Period: time.Millisecond, GPUBusy: nan, CPUBusy: nan, AvgComputeUt: nan, AvgPowerW: nan, GPULevel: 2},
		{Period: -time.Second, GPUBusy: inf, CPUBusy: -inf, AvgComputeUt: -1, AvgPowerW: inf, GPULevel: 99, CPULevel: -3},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		stats = append(stats, sim.WindowStats{
			Period:       time.Duration(rng.Int63n(int64(time.Second))),
			GPUBusy:      rng.Float64(),
			CPUBusy:      rng.Float64(),
			AvgComputeUt: rng.NormFloat64(),
			AvgPowerW:    rng.ExpFloat64() * 10,
			GPULevel:     rng.Intn(p.NumGPULevels()),
			CPULevel:     rng.Intn(len(p.CPUFreqsHz)),
		})
	}
	for _, tc := range []struct {
		name string
		new  func() sim.MacroSteppable
	}{
		{"PowerLens", func() sim.MacroSteppable { return NewPowerLens(plan) }},
		{"MultiPlan", func() sim.MacroSteppable { return NewMultiPlan(plans) }},
	} {
		for _, gr := range []*graph.Graph{g, other} {
			ticked, still := tc.new(), tc.new()
			for _, c := range []sim.MacroSteppable{ticked, still} {
				c.Reset(p)
				for id := range gr.Layers {
					c.BeforeLayer(gr, id)
				}
			}
			level := still.GPULevel()
			for _, s := range stats {
				ticked.OnWindow(s)
				if got := ticked.GPULevel(); got != level {
					t.Fatalf("%s on %s: OnWindow(%+v) moved the level %d -> %d", tc.name, gr.Name, s, level, got)
				}
			}
			if !reflect.DeepEqual(ticked, still) {
				t.Fatalf("%s on %s: OnWindow changed the controller:\nticked %+v\nstill  %+v",
					tc.name, gr.Name, ticked, still)
			}
		}
	}
}
