package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"powerlens/internal/experiments"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/obs/runlog"
	"powerlens/internal/obs/serve"
)

// observeFlags is the parsed flag set for `experiments observe`, split from
// runObserve so the plumbing is testable without exiting the process.
type observeFlags struct {
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

func parseObserveFlags(args []string) (observeFlags, error) {
	var o observeFlags
	fs := flag.NewFlagSet("observe", flag.ContinueOnError)
	fs.IntVar(&o.networks, "networks", 400, "random networks per platform for deployment")
	fs.Int64Var(&o.seed, "seed", 1, "master seed (also seeds the fault schedule)")
	fs.IntVar(&o.tasks, "tasks", 20, "single-node task-flow length")
	fs.IntVar(&o.nodes, "nodes", 3, "cluster size")
	fs.IntVar(&o.jobs, "jobs", 20, "cluster job-trace length")
	fs.StringVar(&o.traceOut, "trace-out", "observe_trace.json", "Chrome trace_event JSON output path (empty = skip)")
	fs.StringVar(&o.metricsOut, "metrics-out", "observe_metrics.prom", "Prometheus text output path (empty = skip)")
	fs.StringVar(&o.serve, "serve", "", "serve live telemetry on this address (e.g. :8080; empty = off)")
	fs.DurationVar(&o.serveFor, "serve-for", 0, "with -serve: keep serving this long after the run (0 = until interrupted)")
	fs.StringVar(&o.runDir, "run-dir", "", "record manifest + artifacts in this run-provenance store (empty = off)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, positiveFlags(fs, "tasks", "nodes", "jobs")
}

// runObserve executes the fully instrumented scenario on TX2 and exports the
// observability snapshot: a Prometheus text page and a Chrome trace_event
// JSON file loadable in Perfetto / chrome://tracing. With -serve the same
// sinks are mounted on a live telemetry server (started before deployment,
// so /healthz answers while the framework trains); with -run-dir the run is
// recorded in the provenance store that `powerlens runs` reads.
func runObserve(args []string) {
	f, err := parseObserveFlags(args)
	if err != nil {
		os.Exit(2)
	}

	o := obs.New()
	store := openRunStore(f.runDir)
	srv, running := startTelemetry(f.serve, o, store)

	env := buildEnv(f.networks, f.seed)

	var run *runlog.Run
	if store != nil {
		run = beginRun(store, "observe", "TX2", f.seed, struct {
			Networks, Tasks, Nodes, Jobs int
			Seed                         int64
		}{f.networks, f.tasks, f.nodes, f.jobs, f.seed})
		if srv != nil {
			srv.SetLiveRun(run.ID())
		}
	}

	start := time.Now()
	d, err := experiments.Observe(env, hw.TX2(), experiments.ObserveOptions{
		Tasks: f.tasks, Nodes: f.nodes, Jobs: f.jobs, Seed: f.seed, Obs: o,
	})
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)
	fmt.Println(experiments.RenderObserve(d))
	if err := exportObs(d.Obs, d.Events, f.traceOut, f.metricsOut); err != nil {
		fail(err)
	}

	if run != nil {
		metrics := map[string]float64{}
		for k, v := range d.Flow.Headline() {
			metrics["flow_"+k] = v
		}
		for k, v := range d.Cluster.Headline() {
			metrics["cluster_"+k] = v
		}
		finishRun(run, d.Obs, d.Events, wall, metrics)
	}
	lingerTelemetry(running, f.serveFor)
}

// openRunStore opens the optional run-provenance store ("" = none).
func openRunStore(dir string) *runlog.Store {
	if dir == "" {
		return nil
	}
	store, err := runlog.Open(dir)
	if err != nil {
		fail(err)
	}
	return store
}

// startTelemetry starts the optional live telemetry server ("" = none).
func startTelemetry(addr string, o *obs.Observer, store *runlog.Store) (*serve.Server, *serve.Running) {
	if addr == "" {
		return nil, nil
	}
	srv := serve.New(o, store)
	running, err := srv.Start(addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "telemetry: serving %s/metrics (also /healthz, /runs, /debug/pprof)\n", running.URL())
	return srv, running
}

// beginRun opens a provenance record, digesting the scenario's option set.
func beginRun(store *runlog.Store, scenario, platform string, seed int64, config any) *runlog.Run {
	run, err := store.Begin(runlog.Manifest{
		Scenario:     scenario,
		Platform:     platform,
		Seed:         seed,
		ConfigDigest: runlog.MustDigest(config),
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "telemetry: recording run %s in %s\n", run.ID(), store.Root())
	return run
}

// finishRun records the trace and metrics artifacts plus the final manifest.
func finishRun(run *runlog.Run, o *obs.Observer, events []obs.Event, wall time.Duration, metrics map[string]float64) {
	err := run.WriteArtifact("trace.json", func(w io.Writer) error {
		return obs.WriteChromeTrace(w, events)
	})
	if err == nil {
		err = run.WriteArtifact("metrics.prom", func(w io.Writer) error {
			return o.Metrics.WritePrometheus(w)
		})
	}
	if err == nil {
		err = run.Finish(wall, metrics)
	}
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "telemetry: run %s finished (wall %v)\n", run.ID(), wall.Round(time.Millisecond))
}

// lingerTelemetry keeps a started server up after the scenario so late
// scrapers can still read the final state: for d when positive, until the
// process is interrupted when d is zero. Either way the exit is graceful —
// in-flight scrapes drain (bounded by a shutdown deadline, so a hung client
// cannot wedge the exit) and SIGINT/SIGTERM end the linger early.
func lingerTelemetry(running *serve.Running, d time.Duration) {
	if running == nil {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	if d > 0 {
		fmt.Fprintf(os.Stderr, "telemetry: serving for another %v at %s (ctrl-c to stop sooner)\n", d, running.URL())
		select {
		case <-time.After(d):
		case <-sig:
			fmt.Fprintln(os.Stderr, "telemetry: interrupted; shutting down")
		}
	} else {
		fmt.Fprintf(os.Stderr, "telemetry: serving at %s until interrupted (ctrl-c to stop)\n", running.URL())
		<-sig
		fmt.Fprintln(os.Stderr, "telemetry: interrupted; shutting down")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := running.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "telemetry:", err)
	}
}

// registryTotals flattens a registry snapshot into headline metrics — one
// total per family — for scenarios without a single Result to summarize.
func registryTotals(fams []obs.FamilySnapshot) map[string]float64 {
	m := make(map[string]float64, len(fams))
	for _, f := range fams {
		m[f.Name] = f.Total()
	}
	return m
}

// exportObs writes the trace and metrics artifacts, skipping empty paths.
func exportObs(o *obs.Observer, events []obs.Event, traceOut, metricsOut string) error {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events)\n", traceOut, len(events))
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := o.Metrics.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", metricsOut)
	}
	return nil
}

// withSuffix inserts a suffix before the path's extension
// ("trace.json", "_TX2" → "trace_TX2.json") for per-platform artifacts.
func withSuffix(path, suffix string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + suffix + ext
}
