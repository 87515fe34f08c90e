package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"powerlens/internal/cloud"
	"powerlens/internal/core"
	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/models"
	"powerlens/internal/obs"
	"powerlens/internal/obs/audit"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/sim"
)

// fleetSetup is what a fleet run serves with: the last set-up's framework
// (plan cache warm with the 12 evaluation networks) and the job trace.
type fleetSetup struct {
	fw    *core.Framework
	plans map[string]*governor.FrequencyPlan // the set-up's analyses, by network
	jobs  []cloud.Job
	first []int // index of each distinct graph's first job
}

// exports are the observed fleet's in-memory exports of one repetition.
type exports struct {
	prom, trace, ledger, audit bytes.Buffer
	ledgerPasses               uint64
	events                     int
	fallbacks                  int
}

func (e *exports) size() int { return e.prom.Len() + e.trace.Len() + e.ledger.Len() + e.audit.Len() }

// fleetRep is one measured repetition's outcome.
type fleetRep struct {
	wall    time.Duration
	export  time.Duration // fleet-observed: the four exports
	res     cloud.Result
	stats   sim.SummaryCacheStats
	lookups []float64 // ns per lookup, per batch
	out     *exports  // fleet-observed only
	traced  bool
}

// fleetDeploySeed seeds the fleets' deployment. The deployed framework is the
// system under test's configuration, not its input: the seed of a fleet run
// varies the job trace it serves. A framework redeployed per seed would move
// every fleet metric with the plans it happens to learn (one seed's plans
// doubled the observed fleet's host time and peak RSS).
const fleetDeploySeed = 1

// runFleet runs the fleet or fleet-observed workload. Each of opt.setups
// set-ups deploys the framework, analyzes the evaluation networks uncached
// and builds the trace; the run serves with the last one.
func (b *bench) runFleet(observed bool) error {
	o := b.opt
	var setups, deploys, analyze, hyper, decision []float64
	var timings []core.WorkflowTimings
	var blocks int
	var fs fleetSetup
	for k := 0; k < o.setups; k++ {
		t := time.Now()
		if k == 0 {
			t = processStart
		}
		dt := time.Now()
		fw, report, nb, err := b.deployFramework(o.networks, fleetDeploySeed)
		if !b.op(err, "deploy") {
			return err
		}
		deploys = append(deploys, time.Since(dt).Seconds())
		hyper = append(hyper, report.HyperAccuracy)
		decision = append(decision, report.DecisionAccuracy)
		blocks = nb
		// Two uncached passes: one before the plan cache is attached, then
		// the 12 misses that fill it.
		var as map[string]*core.Analysis
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				b.rec.call("core.EnablePlanCache", 1, func() { fw.EnablePlanCache(0, nil) })
			}
			gs, err := b.buildModels()
			if !b.op(err, "build evaluation networks") {
				return err
			}
			a, perNet, ok := b.analyzeAll(fw, gs)
			if !ok {
				return fmt.Errorf("set-up analysis failed")
			}
			as = a
			analyze = append(analyze, float64(perNet)/1e6)
			for _, name := range models.Names() {
				timings = append(timings, as[name].Timings)
			}
		}
		plans := map[string]*governor.FrequencyPlan{}
		for _, name := range models.Names() {
			plans[name] = as[name].Plan
		}
		var jobs []cloud.Job
		if observed {
			if jobs, err = b.balancedJobs(o.jobs, o.gap, o.seed); !b.op(err, "build trace") {
				return err
			}
		} else {
			b.rec.call("cloud.RandomJobs", 1, func() { jobs = cloud.RandomJobs(o.jobs, o.gap, o.seed) })
		}
		fs = fleetSetup{fw: fw, plans: plans, jobs: jobs, first: firstJobs(jobs)}
		setups = append(setups, time.Since(t).Seconds())
	}
	b.vals["setup_s"] = median(setups)
	b.vals["hyper_accuracy"] = hyper[0]
	b.vals["decision_accuracy"] = decision[0]

	var reps []fleetRep
	var last *exports
	err := b.measure(o.minReps, func() { last = nil }, func(i int, traced bool) {
		r, err := b.fleetRep(fs, observed)
		if !b.op(err, "fleet repetition") {
			return
		}
		r.traced = traced
		b.attempted += len(fs.jobs) * 2 // one plan lookup and one job each
		b.failed += r.res.DroppedJobs
		if len(reps) > 0 {
			b.check(reflect.DeepEqual(r.res, reps[0].res), "repetition %d's cloud.Result differs from repetition 0's", i)
		}
		last = r.out
		r.out = nil
		reps = append(reps, r)
	})
	if err != nil {
		return err
	}
	if len(reps) == 0 {
		return fmt.Errorf("%s: every repetition failed", o.workload)
	}

	var jps, ips []float64
	for _, r := range reps {
		jps = append(jps, float64(len(fs.jobs))/r.wall.Seconds())
		ips = append(ips, float64(r.res.TotalImages)/r.wall.Seconds())
	}
	res := reps[0].res
	b.vals["jobs_per_s"] = median(jps)
	b.vals["sim_images_per_s"] = median(ips)
	b.vals["ee_img_per_j"] = res.EE()
	b.vals["turnaround_s"] = res.MeanTurnaround.Seconds()
	b.extra = append(b.extra, fmt.Sprintf("trace: %d jobs, mean gap %v, %d nodes, shards %d; set-ups deploy %d networks each",
		len(fs.jobs), o.gap, o.nodes, o.shards, o.networks))

	// One more deployment and two more uncached passes after the measured
	// phase, so that the deploy_s and analyze_ms samples span the run instead
	// of only its first seconds.
	dt := time.Now()
	_, report, _, err := b.deployFramework(o.networks, fleetDeploySeed)
	if !b.op(err, "deploy") {
		return err
	}
	deploys = append(deploys, time.Since(dt).Seconds())
	hyper = append(hyper, report.HyperAccuracy)
	decision = append(decision, report.DecisionAccuracy)
	b.vals["deploy_s"] = median(deploys)
	for k := 1; k < len(hyper); k++ {
		b.check(hyper[k] == hyper[0] && decision[k] == decision[0],
			"deployment %d trained on the same dataset as deployment 0 but reached different accuracies", k)
	}
	b.rec.call("core.DisablePlanCache", 1, func() { fs.fw.DisablePlanCache() })
	var gs map[string]*graph.Graph
	for pass := 0; pass < 2; pass++ {
		if gs, err = b.buildModels(); !b.op(err, "build evaluation networks") {
			return err
		}
		_, perNet, ok := b.analyzeAll(fs.fw, gs)
		if !ok {
			return fmt.Errorf("analysis after the measured phase failed")
		}
		analyze = append(analyze, float64(perNet)/1e6)
	}
	b.vals["analyze_ms"] = median(analyze)

	// Output checks, outside the measured phase.
	ee, work := b.table1(gs, fs.plans, b.opt.images)
	b.attempted += work.tasks
	b.vals["ee_gain_vs_bim_pct"] = b.checkTable1(ee)
	if observed {
		b.checkObserved(res, last)
	} else {
		b.checkMacro(fs)
	}

	if o.trace {
		b.fleetLayers(fs, reps, last, timings, blocks)
	}
	return nil
}

// balancedJobs is the fleet-observed trace: Poisson arrivals like
// cloud.RandomJobs', but every evaluation network gets an equal share of the
// jobs and the image counts are a fixed spread over RandomJobs' range (25 to
// 100), in a seeded random order. The gaps are scaled to span exactly n mean
// gaps, which makes the arrivals a Poisson process conditioned on n arrivals
// in that window. On a trace this short, independent draws moved the
// simulated turnaround by about 20% and the energy efficiency (through the
// fleet's idle time) by about 10% from seed to seed; with a fixed mix and
// span the seed only orders the jobs and places the arrivals.
func (b *bench) balancedJobs(n int, gap time.Duration, seed int64) ([]cloud.Job, error) {
	names := models.Names()
	gs, err := b.buildModels()
	if err != nil {
		return nil, err
	}
	jobs := make([]cloud.Job, n)
	for i := range jobs {
		jobs[i] = cloud.Job{Graph: gs[names[i%len(names)]], Images: 25 + (i*37)%76}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var gaps []time.Duration
	b.rec.call("sim.PoissonArrivals", 1, func() { gaps = sim.PoissonArrivals(n, gap, seed+1) })
	var span float64
	for _, g := range gaps {
		span += float64(g)
	}
	scale := float64(n) * float64(gap) / span
	at := 0.0
	for i := range jobs {
		jobs[i].Arrival = time.Duration(at)
		at += float64(gaps[i]) * scale
	}
	return jobs, nil
}

// firstJobs returns the index of each distinct graph's first job.
func firstJobs(jobs []cloud.Job) []int {
	seen := map[*graph.Graph]bool{}
	var out []int
	for i, j := range jobs {
		if !seen[j.Graph] {
			seen[j.Graph] = true
			out = append(out, i)
		}
	}
	return out
}

// fleetRep runs one measured repetition: a plan-cache lookup per job, the
// fleet simulation, and in fleet-observed the four exports.
func (b *bench) fleetRep(fs fleetSetup, observed bool) (fleetRep, error) {
	o := b.opt
	var r fleetRep
	t := time.Now()
	got := make([]*core.Analysis, len(fs.jobs))
	var lookupErr error
	for start := 0; start < len(fs.jobs); start += o.lookupBatch {
		end := min(start+o.lookupBatch, len(fs.jobs))
		t0 := time.Now()
		b.rec.call("core.Analyze", end-start, func() {
			for i := start; i < end; i++ {
				a, err := fs.fw.Analyze(fs.jobs[i].Graph)
				if err != nil {
					lookupErr = err
				}
				got[i] = a
			}
		})
		r.lookups = append(r.lookups, float64(time.Since(t0))/float64(end-start))
	}
	if lookupErr != nil {
		return r, fmt.Errorf("plan lookup: %w", lookupErr)
	}
	plans := map[string]*governor.FrequencyPlan{}
	for _, i := range fs.first {
		plans[fs.jobs[i].Graph.Name] = got[i].Plan
	}

	cfg := cloud.Config{Nodes: o.nodes, Platform: b.p, Shards: o.shards, Macro: sim.NewSummaryCache()}
	var guards []*governor.Guard
	var mu sync.Mutex
	if observed {
		cfg.Obs, cfg.Ledger, cfg.Audit = obs.New(), ledger.New(), audit.New(audit.Config{})
		// The factory runs on cloud.Run's goroutines; the lock keeps the list
		// of guards whose fallback counts are summed afterwards.
		cfg.NewCtl = func() sim.Controller {
			var g *governor.Guard
			b.rec.callback("governor.NewGuard", func() { g = governor.NewGuard(governor.NewMultiPlan(plans)) })
			mu.Lock()
			guards = append(guards, g)
			mu.Unlock()
			return g
		}
	} else {
		cfg.NewCtl = func() sim.Controller {
			var c sim.Controller
			b.rec.callback("governor.NewMultiPlan", func() { c = governor.NewMultiPlan(plans) })
			return c
		}
	}
	var err error
	b.rec.call("cloud.Run", 1, func() { r.res, err = cloud.Run(cfg, fs.jobs) })
	if err != nil {
		return r, fmt.Errorf("cloud.Run: %w", err)
	}
	if observed {
		te := time.Now()
		if r.out, err = b.export(cfg); err != nil {
			return r, err
		}
		r.export = time.Since(te)
	}
	r.wall = time.Since(t)
	r.stats = cfg.Macro.Stats()

	// A lookup that missed the cache would have run the full pipeline and
	// returned a new analysis, not the set-up's.
	miss := -1
	for i, j := range fs.jobs {
		if got[i].Plan != fs.plans[j.Graph.Name] {
			miss = i
			break
		}
	}
	b.check(miss < 0, "plan lookup for job %d did not return the set-up's cached plan", miss)
	if observed {
		for _, g := range guards {
			r.out.fallbacks += g.Stats.FallbackActivations
		}
	}
	return r, nil
}

// export writes the observed fleet's Prometheus page, Chrome trace, ledger
// JSON and audit JSON to memory, publishing the ledger and audit families to
// the metrics registry first.
func (b *bench) export(cfg cloud.Config) (*exports, error) {
	e := &exports{}
	var errs [4]error
	b.rec.call("obs.ledger.ExportTo", 1, func() { cfg.Ledger.ExportTo(cfg.Obs.Metrics) })
	b.rec.call("obs.audit.ExportTo", 1, func() { cfg.Audit.ExportTo(cfg.Obs.Metrics) })
	b.rec.call("obs.WritePrometheus", 1, func() { errs[0] = cfg.Obs.Metrics.WritePrometheus(&e.prom) })
	b.rec.call("obs.WriteTrace", 1, func() { errs[1] = cfg.Obs.Tracer.WriteTrace(&e.trace) })
	b.rec.call("obs.ledger.WriteJSON", 1, func() { errs[2] = cfg.Ledger.WriteJSON(&e.ledger) })
	b.rec.call("obs.audit.WriteJSON", 1, func() { errs[3] = cfg.Audit.WriteJSON(&e.audit) })
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("export: %w", err)
		}
	}
	for _, m := range cfg.Ledger.Snapshot().Models {
		e.ledgerPasses += m.Passes
	}
	e.events = cfg.Obs.Tracer.Len()
	return e, nil
}

// checkObserved checks the last observed repetition's exports.
func (b *bench) checkObserved(res cloud.Result, e *exports) {
	if !b.check(e != nil, "fleet-observed: no repetition produced exports") {
		return
	}
	_, err := obs.CheckPrometheusText(bytes.NewReader(e.prom.Bytes()))
	b.check(err == nil, "Prometheus page rejected: %v", err)
	_, err = obs.ReadChromeTrace(bytes.NewReader(e.trace.Bytes()))
	b.check(err == nil, "Chrome trace does not decode: %v", err)
	b.check(e.ledgerPasses == uint64(res.Passes), "ledger passes %d != Result.Passes %d", e.ledgerPasses, res.Passes)
	b.check(res.DroppedJobs == 0, "%d jobs dropped", res.DroppedJobs)
	b.check(e.fallbacks == 0, "%d guard fallbacks in a fault-free run", e.fallbacks)
}

// checkMacro re-runs a prefix of the trace macro-stepped (as measured) and
// micro-stepped (Config.TraceOff), and checks the two results are identical.
func (b *bench) checkMacro(fs fleetSetup) {
	o := b.opt
	n := min(o.checkJobs, len(fs.jobs))
	cfg := cloud.Config{Nodes: o.nodes, Platform: b.p, Shards: o.shards,
		NewCtl: func() sim.Controller { return governor.NewMultiPlan(fs.plans) }}
	macro, micro := cfg, cfg
	macro.Macro = sim.NewSummaryCache()
	micro.TraceOff = true
	rm, err := cloud.Run(macro, fs.jobs[:n])
	if !b.op(err, "macro prefix run") {
		return
	}
	ru, err := cloud.Run(micro, fs.jobs[:n])
	if !b.op(err, "micro prefix run") {
		return
	}
	b.attempted += 2 * n
	err = sameResult(rm, ru)
	b.check(err == nil, "macro-stepped %d-job prefix differs from the micro-stepped re-run: %v", n, err)
}

// sameResult reports whether two fleet results are identical, naming the
// first field that differs.
func sameResult(a, b cloud.Result) error {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Errorf("field %s differs", va.Type().Field(i).Name)
		}
	}
	return fmt.Errorf("results differ")
}

// fleetLayers fills the per-layer metrics of a fleet workload. The offline
// layers run only in set-up here, so their metrics come from set-up spans.
func (b *bench) fleetLayers(fs fleetSetup, reps []fleetRep, last *exports, timings []core.WorkflowTimings, blocks int) {
	all := func(span) bool { return true }
	b.vals["dataset.generate_s"] = median(seconds(b.rec.named("dataset.Generate"), all))
	b.vals["dataset.blocks"] = float64(blocks)
	b.vals["core.train_s"] = median(seconds(b.rec.named("core.TrainFramework"), all))
	// Batched lookups (Calls > 1) are cache hits, not analyses.
	b.stageLayers(timings, b.rec.named("core.Analyze"), func(s span) bool { return s.Calls == 1 })

	var runS, runMB, lookups []float64
	for _, s := range b.rec.named("cloud.Run") {
		if inside(s.Start, b.traced) {
			runS = append(runS, s.dur().Seconds())
			runMB = append(runMB, float64(s.AllocBytes)/mib)
		}
	}
	var exportS []float64
	var tracedRep fleetRep
	for _, r := range reps {
		if r.traced {
			lookups = append(lookups, r.lookups...)
			exportS = append(exportS, r.export.Seconds())
			tracedRep = r
		}
	}
	type svcKey struct {
		g      *graph.Graph
		images int
	}
	steps, keys := 0, map[svcKey]bool{}
	for _, j := range fs.jobs {
		steps += j.Images * len(j.Graph.Layers)
		keys[svcKey{j.Graph, j.Images}] = true
	}
	st := tracedRep.stats
	pc := fs.fw.PlanCacheStats()
	b.vals["sim.layer_steps_per_s"] = float64(steps) / median(runS)
	b.vals["sim.macro_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
	b.vals["sim.macro_fills"] = float64(st.Fills)
	b.vals["sim.macro_aborts"] = float64(st.Aborts)
	b.vals["sim.macro_demoted"] = float64(st.Demoted)
	b.vals["sim.passes"] = float64(tracedRep.res.Passes)
	b.vals["core.plan_lookup_ns"] = median(lookups)
	b.vals["core.plan_cache_hit_ratio"] = ratio(float64(pc.Hits), float64(pc.Hits+pc.Misses))
	b.vals["cloud.run_s"] = median(runS)
	b.vals["cloud.run_alloc_mb"] = median(runMB)
	b.vals["cloud.probe_share"] = float64(len(keys)) / float64(len(fs.jobs))

	b.vals["obs.export_s"] = median(exportS)
	b.vals["obs.export_mb"], b.vals["obs.trace_events"], b.vals["governor.guard_fallbacks"] = 0, 0, 0
	if last != nil {
		b.vals["obs.export_mb"] = float64(last.size()) / mib
		b.vals["obs.trace_events"] = float64(last.events)
		b.vals["governor.guard_fallbacks"] = float64(last.fallbacks)
	}
}
