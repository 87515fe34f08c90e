package experiments

import (
	"runtime"
	"time"

	"powerlens/internal/cloud"
	"powerlens/internal/core"
	"powerlens/internal/dataset"
	"powerlens/internal/features"
	"powerlens/internal/governor"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/nn"
	"powerlens/internal/sim"
)

// onlineBench measures the online serving fast path: the plan cache
// (analyze_ns_cached vs analyze_ns_uncached), steady-state executor stepping
// allocations with tracing off (executor_step_allocs — the fast path's
// headline is that this is zero), and sharded cloud dispatch throughput
// (dispatch_jobs_per_s). BENCH_online.json pins these against regression.
func onlineBench(opt BenchOptions, add func(group, name string, value float64, unit string, tol float64, higherIsBetter bool)) {
	p := hw.TX2()
	fw := benchFramework(p, opt.Seed)
	model := "resnet34"
	if opt.Smoke {
		model = "alexnet"
	}
	g := models.MustBuild(model)

	// Uncached analysis: the full per-request pipeline (feature extraction →
	// hyperparameter NN → clustering → decision NN → guard).
	uncachedIters := 8
	if opt.Smoke {
		uncachedIters = 2
	}
	d := timeBest(opt.Repeats, func() {
		for i := 0; i < uncachedIters; i++ {
			if _, err := fw.Analyze(g); err != nil {
				panic(err) // deterministic input; cannot fail once it ever passed
			}
		}
	})
	add("online", "analyze_ns_uncached", float64(d.Nanoseconds())/float64(uncachedIters), "ns/op", 0.50, false)

	// Cached analysis: the same call against a warm plan cache — one graph
	// digest and a map hit.
	fw.EnablePlanCache(0, nil)
	if _, err := fw.Analyze(g); err != nil {
		panic(err)
	}
	cachedIters := 20_000
	if opt.Smoke {
		cachedIters = 4_000
	}
	d = timeBest(opt.Repeats, func() {
		for i := 0; i < cachedIters; i++ {
			if _, err := fw.Analyze(g); err != nil {
				panic(err)
			}
		}
	})
	add("online", "analyze_ns_cached", float64(d.Nanoseconds())/float64(cachedIters), "ns/op", 0.50, false)

	// Steady-state executor stepping allocations with tracing off. The first
	// run warms the per-run scratch (sensor, cost grid, compiled plan
	// schedule); after that the serving loop must not touch the heap. Counted
	// as testing.AllocsPerRun counts: on one P, in whole allocations per run,
	// so a stray allocation elsewhere in the process floors away.
	a, err := fw.Analyze(g)
	if err != nil {
		panic(err)
	}
	fw.DisablePlanCache()
	e := sim.NewExecutor(p, governor.NewPowerLens(a.Plan))
	e.SensorPeriod = 0
	images := 4
	runs := 8
	if opt.Smoke {
		runs = 3
	}
	procs := runtime.GOMAXPROCS(1)
	e.RunTask(g, images) // warm-up run
	var ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	for i := 0; i < runs; i++ {
		e.RunTask(g, images)
	}
	runtime.ReadMemStats(&ms2)
	runtime.GOMAXPROCS(procs)
	perRun := (ms2.Mallocs - ms1.Mallocs) / uint64(runs)
	add("online", "executor_step_allocs",
		float64(perRun)/float64(images*len(g.Layers)), "allocs/step", 0.50, false)

	// Sharded dispatch throughput: a seeded job trace through the
	// work-stealing dispatcher, end to end (dispatch + node simulation).
	// The fleet runs plan controllers (the deployed shape), so node passes are
	// macro-steppable: dispatch_jobs_per_s is the headline macro path against a
	// warm shared summary cache, dispatch_jobs_per_s_micro the micro-stepped
	// reference the macro layer is bit-identical to.
	nodes, shards, jobsN := 8, 4, 48
	if opt.Smoke {
		nodes, shards, jobsN = 4, 2, 12
	}
	jobs := cloud.RandomJobs(jobsN, 200*time.Millisecond, opt.Seed)
	plans := map[string]*governor.FrequencyPlan{}
	for _, name := range models.Names() {
		mid := len(models.MustBuild(name).Layers) / 2
		plans[name] = &governor.FrequencyPlan{
			Model:  name,
			Points: map[int]int{0: 5, mid: p.NumGPULevels() - 1},
		}
	}
	newCtl := func() sim.Controller { return governor.NewMultiPlan(plans) }
	cfg := cloud.Config{
		Nodes:    nodes,
		Platform: p,
		NewCtl:   newCtl,
		Shards:   shards,
	}

	micro := cfg
	micro.TraceOff = true
	d = timeBest(opt.Repeats, func() {
		if _, err := cloud.Run(micro, jobs); err != nil {
			panic(err)
		}
	})
	add("online", "dispatch_jobs_per_s_micro", float64(jobsN)/d.Seconds(), "jobs/s", 0.50, true)

	macro := cfg
	macro.Macro = sim.NewSummaryCache()
	if _, err := cloud.Run(macro, jobs); err != nil {
		panic(err) // warm the shared summary cache before timing
	}
	d = timeBest(opt.Repeats, func() {
		if _, err := cloud.Run(macro, jobs); err != nil {
			panic(err)
		}
	})
	add("online", "dispatch_jobs_per_s", float64(jobsN)/d.Seconds(), "jobs/s", 0.50, true)
}

// benchFramework assembles a deployment-free Framework: seeded, untrained
// models of the production shapes with scalers fit on synthetic samples.
// Analysis outputs are arbitrary but deterministic — exactly what latency
// and allocation measurements need, without minutes of offline training.
func benchFramework(p *hw.Platform, seed int64) *core.Framework {
	grid := dataset.DefaultGrid()
	hyperSamples := synthTrainSamples(64, features.StructuralDim, features.StatsDim, len(grid), seed)
	decisionSamples := synthTrainSamples(64, features.StructuralDim, features.StatsDim, p.NumGPULevels(), seed+1)
	return &core.Framework{
		Platform: p,
		Grid:     grid,
		HyperModel: nn.NewTwoStageNet(features.StructuralDim, features.StatsDim,
			[]int{48, 32}, []int{48, 24}, len(grid), seed+2),
		HyperScaler: nn.FitFacetScaler(hyperSamples),
		DecisionModel: nn.NewTwoStageNet(features.StructuralDim, features.StatsDim,
			[]int{64, 32}, []int{32}, p.NumGPULevels(), seed+3),
		DecisionScaler: nn.FitFacetScaler(decisionSamples),
	}
}
