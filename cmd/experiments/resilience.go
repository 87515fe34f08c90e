package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"powerlens/internal/experiments"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/obs/runlog"
)

// resilienceFlags is the parsed flag set for `experiments resilience`, split
// from runResilience so the plumbing is testable without exiting the process.
type resilienceFlags struct {
	networks   int
	seed       int64
	tasks      int
	nodes      int
	jobs       int
	traceOut   string
	metricsOut string
	serve      string
	serveFor   time.Duration
	runDir     string
}

func parseResilienceFlags(args []string) (resilienceFlags, error) {
	var o resilienceFlags
	fs := flag.NewFlagSet("resilience", flag.ContinueOnError)
	fs.IntVar(&o.networks, "networks", 400, "random networks per platform for deployment")
	fs.Int64Var(&o.seed, "seed", 1, "master seed (also seeds the fault schedule)")
	fs.IntVar(&o.tasks, "tasks", 40, "task-flow length for the single-node scenario")
	fs.IntVar(&o.nodes, "nodes", 4, "cluster size for the failover scenario")
	fs.IntVar(&o.jobs, "jobs", 40, "job-trace length for the failover scenario")
	fs.StringVar(&o.traceOut, "trace-out", "", "write faulted-run Chrome trace JSON per platform (empty = off)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write faulted-run Prometheus text per platform (empty = off)")
	fs.StringVar(&o.serve, "serve", "", "serve live telemetry on this address (e.g. :8080; empty = off)")
	fs.DurationVar(&o.serveFor, "serve-for", 0, "with -serve: keep serving this long after the runs (0 = until interrupted)")
	fs.StringVar(&o.runDir, "run-dir", "", "record per-platform manifests + artifacts in this run-provenance store (empty = off)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, positiveFlags(fs, "tasks", "nodes", "jobs")
}

// observed reports whether any flag requests the instrumented variant.
func (o resilienceFlags) observed() bool {
	return o.traceOut != "" || o.metricsOut != "" || o.serve != "" || o.runDir != ""
}

// runResilience executes the fault-injection scenario: every governor runs
// an identical task flow (and job trace, for the cluster variant) fault-free
// and under the same seeded fault schedule, reporting per-policy fault and
// recovery counters. With -trace-out / -metrics-out the faulted runs stream
// into the observability layer and the artifacts are written per platform;
// -serve mounts the currently-executing platform's observer on a live
// telemetry server, and -run-dir records one provenance run per platform.
func runResilience(args []string) {
	f, err := parseResilienceFlags(args)
	if err != nil {
		os.Exit(2)
	}

	if !f.observed() {
		runResilienceWithEnv(buildEnv(f.networks, f.seed), f.tasks, f.nodes, f.jobs, f.seed)
		return
	}

	store := openRunStore(f.runDir)
	// The observer is per-platform; the server starts with none and is
	// repointed at each platform's sinks as that platform begins.
	srv, running := startTelemetry(f.serve, nil, store)
	env := buildEnv(f.networks, f.seed)

	for _, p := range hw.Platforms() {
		o := obs.New()
		if srv != nil {
			srv.SetObserver(o)
		}
		var run *runlog.Run
		if store != nil {
			run = beginRun(store, "resilience", p.Name, f.seed, struct {
				Networks, Tasks, Nodes, Jobs int
				Seed                         int64
				Platform                     string
			}{f.networks, f.tasks, f.nodes, f.jobs, f.seed, p.Name})
			if srv != nil {
				srv.SetLiveRun(run.ID())
			}
		}

		start := time.Now()
		rows, err := experiments.ResilienceObserved(env, p, f.tasks, f.seed, o)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderResilience(p.Name, f.tasks, rows))

		crows, err := experiments.ClusterResilienceObserved(env, p, f.nodes, f.jobs, f.seed, o)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderClusterResilience(p.Name, f.nodes, f.jobs, crows))
		wall := time.Since(start)

		tOut, mOut := f.traceOut, f.metricsOut
		if tOut != "" {
			tOut = withSuffix(tOut, "_"+p.Name)
		}
		if mOut != "" {
			mOut = withSuffix(mOut, "_"+p.Name)
		}
		if err := exportObs(o, o.Tracer.Events(), tOut, mOut); err != nil {
			fail(err)
		}
		if run != nil {
			finishRun(run, o, o.Tracer.Events(), wall, registryTotals(o.Metrics.Snapshot()))
		}
	}
	lingerTelemetry(running, f.serveFor)
}

func runResilienceWithEnv(env *experiments.Env, tasks, nodes, jobs int, seed int64) {
	for _, p := range hw.Platforms() {
		rows, err := experiments.Resilience(env, p, tasks, seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderResilience(p.Name, tasks, rows))

		crows, err := experiments.ClusterResilience(env, p, nodes, jobs, seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderClusterResilience(p.Name, nodes, jobs, crows))
	}
}
