package main

import (
	"fmt"
	"math/rand"
	"time"

	"powerlens/internal/core"
	"powerlens/internal/dataset"
	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

// flowGap is the idle gap between Fig. 5 tasks, the paper's task-flow
// setting (internal/experiments uses the same 300 ms).
const flowGap = 300 * time.Millisecond

// quality holds a deploy round's simulated and learned outcomes. They are
// deterministic per seed, so a faster program must leave them unchanged.
type quality struct {
	hyper, decision float64 // DeployReport test accuracies
	gainBiM         float64 // Table 1 mean EE gain over BiM, percent
	flowEE          float64 // Fig. 5 PowerLens flow, img/J
	turnaround      float64 // Fig. 5 PowerLens flow, mean seconds per task
}

// simWork counts simulated work.
type simWork struct {
	images, tasks int
	steps         int // layer executions: images × layers
	passes        int // inference passes
}

func (w *simWork) add(r sim.Result, tasks []sim.Task) {
	w.images += r.Images
	w.passes += r.Passes
	w.tasks += len(tasks)
	for _, t := range tasks {
		w.steps += t.Images * len(t.Graph.Layers)
	}
}

// round is the outcome of one deploy round.
type round struct {
	deploy  time.Duration   // dataset.Generate + core.TrainFramework
	analyze []time.Duration // per pass: uncached Analyze time per network
	sim     time.Duration   // Table 1 + Fig. 5 host time
	work    simWork
	blocks  int // Dataset B size
	q       quality
	timings []core.WorkflowTimings
}

// runDeploy is the offline workload: every round deploys a framework from a
// seeded dataset, analyzes the 12 evaluation networks uncached on freshly
// built graphs, and runs Table 1 and a Fig. 5 task flow with the deployed
// plans. Round r deploys with the r-th of opt.rounds derived seeds (cycling),
// so the quality metrics average opt.rounds distinct deployments while the
// time budget decides how many timing samples the run collects.
func (b *bench) runDeploy() error {
	o := b.opt
	var setups []float64
	for k := 0; k < o.setups; k++ {
		t := time.Now()
		if k == 0 {
			t = processStart
		}
		// Warm-up: a small round exercising every path once, so that heap
		// growth and first-use costs land in set-up, not in round 0.
		if _, err := b.deployRound(o.warmNets, seedFor(o.seed, 1000+k), 1, 1, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	b.vals["setup_s"] = median(setups)

	minReps := o.rounds
	if o.trace {
		minReps = 2 // a traced run prints no quality metric
	}
	var all []*round // nil for a round that failed (already counted)
	var tracedRounds []round
	err := b.measure(minReps, nil, func(i int, traced bool) {
		r, err := b.deployRound(o.networks, seedFor(o.seed, i%o.rounds), o.passes, o.flowPer, true)
		if err != nil {
			all = append(all, nil)
			return
		}
		if i >= o.rounds && all[i-o.rounds] != nil {
			prev := all[i-o.rounds].q
			b.check(r.q == prev, "deploy round %d repeats round %d's deployment but its outcome differs: %+v vs %+v", i, i-o.rounds, r.q, prev)
		}
		all = append(all, &r)
		if traced {
			tracedRounds = append(tracedRounds, r)
		}
	})
	if err != nil {
		return err
	}

	var deploys, analyze, simRate, taskRate []float64
	var q []quality
	for i, r := range all {
		if r == nil {
			continue
		}
		deploys = append(deploys, r.deploy.Seconds())
		for _, a := range r.analyze {
			analyze = append(analyze, float64(a)/1e6)
		}
		simRate = append(simRate, float64(r.work.images)/r.sim.Seconds())
		taskRate = append(taskRate, float64(r.work.tasks)/r.sim.Seconds())
		if i < o.rounds {
			q = append(q, r.q)
		}
	}
	if len(deploys) == 0 || (o.trace && len(tracedRounds) == 0) {
		return fmt.Errorf("deploy: every round failed")
	}
	b.vals["deploy_s"] = median(deploys)
	b.vals["analyze_ms"] = median(analyze)
	b.vals["sim_images_per_s"] = median(simRate)
	b.vals["jobs_per_s"] = median(taskRate)
	b.vals["hyper_accuracy"] = meanOf(q, func(x quality) float64 { return x.hyper })
	b.vals["decision_accuracy"] = meanOf(q, func(x quality) float64 { return x.decision })
	b.vals["ee_gain_vs_bim_pct"] = meanOf(q, func(x quality) float64 { return x.gainBiM })
	b.vals["ee_img_per_j"] = meanOf(q, func(x quality) float64 { return x.flowEE })
	b.vals["turnaround_s"] = meanOf(q, func(x quality) float64 { return x.turnaround })
	b.extra = append(b.extra, fmt.Sprintf("deployments: %d networks each; quality metrics average %d distinct ones; %d uncached Analyze passes",
		o.networks, len(q), len(analyze)))

	if o.trace {
		b.deployLayers(tracedRounds)
	}
	return nil
}

// deployLayers fills the per-layer metrics from the traced rounds.
func (b *bench) deployLayers(rs []round) {
	var steps []float64
	var timings []core.WorkflowTimings
	for _, r := range rs {
		steps = append(steps, float64(r.work.steps)/r.sim.Seconds())
		timings = append(timings, r.timings...)
	}
	traced := func(s span) bool { return inside(s.Start, b.traced) }
	last := rs[len(rs)-1]
	b.vals["dataset.generate_s"] = median(seconds(b.rec.named("dataset.Generate"), traced))
	b.vals["dataset.blocks"] = float64(last.blocks)
	b.vals["core.train_s"] = median(seconds(b.rec.named("core.TrainFramework"), traced))
	b.stageLayers(timings, b.rec.named("core.Analyze"), traced)
	b.vals["sim.layer_steps_per_s"] = median(steps)
	b.vals["sim.passes"] = float64(last.work.passes)
	for _, n := range []string{"sim.macro_hit_ratio", "sim.macro_fills", "sim.macro_aborts", "sim.macro_demoted",
		"core.plan_lookup_ns", "core.plan_cache_hit_ratio", "cloud.run_s", "cloud.run_alloc_mb", "cloud.probe_share",
		"obs.export_s", "obs.export_mb", "obs.trace_events", "governor.guard_fallbacks"} {
		b.vals[n] = 0 // this workload runs no plan cache, summary cache, fleet or sink
	}
}

// seconds returns the durations of the spans keep selects, in seconds.
func seconds(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// stageLayers fills the Analyze stage metrics from uncached analyses: the
// stage timings Analyze itself reports, and the allocation deltas of the
// benchmark's spans around the calls that keep selects.
func (b *bench) stageLayers(timings []core.WorkflowTimings, analyses []span, keep func(span) bool) {
	var feat, pred, view, mallocs, alloc []float64
	for _, t := range timings {
		feat = append(feat, float64(t.FeatureExtraction)/1e6)
		pred = append(pred, float64(t.HyperPrediction)/1e3)
		view = append(view, float64(t.Clustering)/1e6)
	}
	for _, s := range analyses {
		if keep(s) {
			mallocs = append(mallocs, float64(s.Mallocs))
			alloc = append(alloc, float64(s.AllocBytes)/mib)
		}
	}
	b.vals["features.extract_ms"] = mean(feat)
	b.vals["nn.predict_us"] = mean(pred)
	b.vals["cluster.view_ms"] = mean(view)
	b.vals["core.analyze_mallocs"] = median(mallocs)
	b.vals["core.analyze_alloc_mb"] = median(alloc)
}

func meanOf(q []quality, f func(quality) float64) float64 {
	xs := make([]float64, len(q))
	for i, x := range q {
		xs[i] = f(x)
	}
	return mean(xs)
}

// deployFramework runs the offline deployment: dataset generation, then
// training of both models.
func (b *bench) deployFramework(networks int, seed int64) (*core.Framework, *core.DeployReport, int, error) {
	cfg := core.DefaultDeployConfig()
	cfg.NumNetworks = networks
	cfg.Seed = seed
	var dsA *dataset.DatasetA
	var dsB *dataset.DatasetB
	b.rec.call("dataset.Generate", 1, func() { dsA, dsB = dataset.Generate(b.p, dataset.DefaultConfig(networks, seed)) })
	report := &core.DeployReport{NumNetworks: networks}
	var fw *core.Framework
	var err error
	b.rec.call("core.TrainFramework", 1, func() { fw, err = core.TrainFramework(b.p, dsA, dsB, cfg, report) })
	if err != nil {
		return nil, nil, 0, fmt.Errorf("deploy %d networks, seed %d: %w", networks, seed, err)
	}
	return fw, report, len(dsB.Samples), nil
}

// buildModels builds a fresh graph of every evaluation network.
func (b *bench) buildModels() (map[string]*graph.Graph, error) {
	gs := map[string]*graph.Graph{}
	for _, name := range models.Names() {
		var g *graph.Graph
		var err error
		b.rec.call("models.Build", 1, func() { g, err = models.Build(name) })
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		gs[name] = g
	}
	return gs, nil
}

// analyzeAll analyzes every evaluation network once, returning the analyses
// and the mean wall time per network.
func (b *bench) analyzeAll(fw *core.Framework, gs map[string]*graph.Graph) (map[string]*core.Analysis, time.Duration, bool) {
	names := models.Names()
	out := map[string]*core.Analysis{}
	t := time.Now()
	for _, name := range names {
		var a *core.Analysis
		var err error
		b.rec.call("core.Analyze", 1, func() { a, err = fw.Analyze(gs[name]) })
		if !b.op(err, "analyze "+name) {
			return nil, 0, false
		}
		out[name] = a
	}
	return out, time.Since(t) / time.Duration(len(names)), true
}

// baseline is a comparison governor of Table 1 and Fig. 5.
type baseline struct {
	name string // span name of the constructor
	make func() sim.Controller
}

var baselines = []baseline{
	{"governor.NewOndemand", func() sim.Controller { return governor.NewOndemand() }}, // BiM
	{"governor.NewFPGG", func() sim.Controller { return governor.NewFPGG() }},
	{"governor.NewFPGCG", func() sim.Controller { return governor.NewFPGCG() }},
}

// runTask simulates one task on a fresh executor, as Table 1 does.
func (b *bench) runTask(ctlName string, mk func() sim.Controller, g *graph.Graph, images int) sim.Result {
	var ctl sim.Controller
	b.rec.call(ctlName, 1, func() { ctl = mk() })
	var e *sim.Executor
	b.rec.call("sim.NewExecutor", 1, func() { e = sim.NewExecutor(b.p, ctl) })
	var r sim.Result
	b.rec.call("sim.RunTask", 1, func() { r = e.RunTask(g, images) })
	return r
}

// table1 runs Table 1: PowerLens with each network's plan and the three
// baselines on every network. It returns each network's EE per governor
// (PowerLens first) and the simulated work.
func (b *bench) table1(gs map[string]*graph.Graph, plans map[string]*governor.FrequencyPlan, images int) (map[string][]float64, simWork) {
	ee := map[string][]float64{}
	var work simWork
	for _, name := range models.Names() {
		g, plan := gs[name], plans[name]
		task := []sim.Task{{Graph: g, Images: images}}
		results := []sim.Result{b.runTask("governor.NewPowerLens", func() sim.Controller { return governor.NewPowerLens(plan) }, g, images)}
		for _, bl := range baselines {
			results = append(results, b.runTask(bl.name, bl.make, g, images))
		}
		for _, r := range results {
			ee[name] = append(ee[name], r.EE())
			work.add(r, task)
		}
	}
	return ee, work
}

// checkTable1 checks the Table 1 shapes the repository pins
// (TestTable1Shapes in internal/experiments): PowerLens beats BiM on every
// network, beats FPG-G and FPG-CG on average, and its mean gain is largest
// over BiM and smallest over FPG-CG. It returns the mean gain over BiM in
// percent. Beating FPG-G and FPG-CG on every network is counted, not
// checked: a 200-network deployment occasionally loses one network to them
// (densenet201 in one of seed 2's deployments).
func (b *bench) checkTable1(ee map[string][]float64) float64 {
	names := models.Names()
	var gain [3]float64 // over BiM, FPG-G, FPG-CG
	for _, name := range names {
		v := ee[name]
		b.check(v[0] > v[1], "Table 1 %s: PowerLens EE %.5f does not beat BiM %.5f", name, v[0], v[1])
		for i := range gain {
			gain[i] += v[0]/v[i+1] - 1
		}
		b.tableNets++
		if v[0] > v[2] && v[0] > v[3] {
			b.tableWins++
		}
	}
	n := float64(len(names))
	bim, g, cg := gain[0]/n, gain[1]/n, gain[2]/n
	b.check(g > 0 && cg > 0, "Table 1: PowerLens does not win on average: gain over FPG-G %.4f, FPG-CG %.4f", g, cg)
	b.check(bim > g && g > cg, "Table 1 gain ordering violated: BiM %.4f, FPG-G %.4f, FPG-CG %.4f", bim, g, cg)
	return bim * 100
}

// balancedFlow is the Fig. 5 task flow: perModel tasks of every evaluation
// network in a seeded random order. Drawing a fixed multiset (rather than
// models independently) keeps the flow's total work the same for every seed.
func balancedFlow(gs map[string]*graph.Graph, perModel, images int, seed int64) []sim.Task {
	var tasks []sim.Task
	for i := 0; i < perModel; i++ {
		for _, name := range models.Names() {
			tasks = append(tasks, sim.Task{Graph: gs[name], Images: images})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	return tasks
}

// deployRound runs one round of the deploy workload. check=false skips the
// output checks (the warm-up's tiny deployment is not expected to win).
func (b *bench) deployRound(networks int, seed int64, passes, flowPer int, check bool) (round, error) {
	var r round
	t := time.Now()
	fw, report, blocks, err := b.deployFramework(networks, seed)
	r.deploy = time.Since(t)
	if !b.op(err, "deploy") {
		return r, err
	}
	r.blocks = blocks
	r.q.hyper, r.q.decision = report.HyperAccuracy, report.DecisionAccuracy

	var gs map[string]*graph.Graph
	var as map[string]*core.Analysis
	for pass := 0; pass < passes; pass++ {
		if gs, err = b.buildModels(); err != nil {
			b.op(err, "build evaluation networks")
			return r, err
		}
		a, perNet, ok := b.analyzeAll(fw, gs)
		if !ok {
			return r, fmt.Errorf("analyze pass %d failed", pass)
		}
		as = a
		r.analyze = append(r.analyze, perNet)
		for _, name := range models.Names() {
			r.timings = append(r.timings, as[name].Timings)
		}
	}

	plans := map[string]*governor.FrequencyPlan{}
	for name, a := range as {
		plans[name] = a.Plan
	}
	t = time.Now()
	ee, work := b.table1(gs, plans, b.opt.images)
	tasks := balancedFlow(gs, flowPer, b.opt.images, seed)
	var flowPL sim.Result
	flows := append([]baseline{{"governor.NewMultiPlan", func() sim.Controller { return governor.NewMultiPlan(plans) }}}, baselines...)
	for i, f := range flows {
		var ctl sim.Controller
		b.rec.call(f.name, 1, func() { ctl = f.make() })
		var e *sim.Executor
		b.rec.call("sim.NewExecutor", 1, func() { e = sim.NewExecutor(b.p, ctl) })
		var res sim.Result
		b.rec.call("sim.RunTaskFlow", 1, func() { res = e.RunTaskFlow(tasks, flowGap) })
		if i == 0 {
			flowPL = res
		}
		work.add(res, tasks)
	}
	r.sim = time.Since(t)
	r.work = work
	b.attempted += work.tasks // every simulated task is an operation; none can fail

	r.q.flowEE = flowPL.EE()
	n := len(tasks)
	r.q.turnaround = (flowPL.Time - time.Duration(n-1)*flowGap).Seconds() / float64(n)
	if check {
		r.q.gainBiM = b.checkTable1(ee)
		b.check(flowPL.Images == n*b.opt.images, "Fig. 5 PowerLens flow simulated %d images, want %d", flowPL.Images, n*b.opt.images)
	}
	return r, nil
}
