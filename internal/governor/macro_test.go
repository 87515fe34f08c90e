package governor

import (
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

	digest := func(ctl sim.MacroSteppable) uint64 {
		d, ok := ctl.MacroPlanDigest(g)
		if !ok {
			t.Fatal("nominal plan controller demoted")
		}
		return d
	}

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
	dOther, ok := pa.MacroPlanDigest(other)
	if !ok {
		t.Fatal("uncovered graph demoted")
	}
	dOther2, _ := pb.MacroPlanDigest(other)
	if dOther != dOther2 || dOther == da {
		t.Fatalf("no-plan sentinel broken: %016x / %016x (plan %016x)", dOther, dOther2, da)
	}
}

// TestGuardMacroDemotions pins the guard's demotion rules: fallback episodes,
// non-macro-steppable inner policies, and stateful (plan) fallbacks must all
// force micro-stepping; the nominal case delegates to the inner digest.
func TestGuardMacroDemotions(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 4}}

	gd := NewGuard(NewPowerLens(plan))
	gd.Reset(p)
	want, ok := gd.Inner.(sim.MacroSteppable).MacroPlanDigest(g)
	if !ok {
		t.Fatal("inner demoted")
	}
	if d, ok := gd.MacroPlanDigest(g); !ok || d != want {
		t.Fatalf("nominal guard: got (%016x, %v), want (%016x, true)", d, ok, want)
	}

	gd.fallback = true
	if _, ok := gd.MacroPlanDigest(g); ok {
		t.Fatal("guard on fallback did not demote")
	}
	gd.fallback = false

	reactive := NewGuard(NewOndemand())
	reactive.Reset(p)
	if _, ok := reactive.MacroPlanDigest(g); ok {
		t.Fatal("guard over a reactive policy did not demote")
	}

	statefulFB := NewGuard(NewPowerLens(plan))
	statefulFB.Fallback = NewPowerLens(plan)
	statefulFB.Reset(p)
	if _, ok := statefulFB.MacroPlanDigest(g); ok {
		t.Fatal("guard with a plan-controller fallback did not demote")
	}
}

// TestGuardMacroRunMatchesMicro runs a guarded MultiPlan flow under
// macro-stepping (windowed mode: passes fast-forward only when they fit
// inside the current window) and requires bit-identity with the micro oracle.
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
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("guarded flow never fast-forwarded: %+v", st)
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
// and they must stay deeply equal — for the planned graph, for a graph no
// plan covers, and with a Guard around the plan.
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
		{"Guard(MultiPlan)", func() sim.MacroSteppable { return NewGuard(NewMultiPlan(plans)) }},
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
