package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"powerlens/internal/experiments"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/obs/runlog"
	"powerlens/internal/obs/slo"
)

// sloFlags is the parsed flag set for `experiments slo`.
type sloFlags struct {
	networks   int
	seed       int64
	tasks      int
	target     float64
	budget     float64
	sloOut     string
	ledgerOut  string
	metricsOut string
	serve      string
	serveFor   time.Duration
	runDir     string
}

func parseSLOFlags(args []string) (sloFlags, error) {
	var o sloFlags
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	fs.IntVar(&o.networks, "networks", 400, "random networks per platform for deployment")
	fs.Int64Var(&o.seed, "seed", 1, "master seed for the task flow")
	fs.IntVar(&o.tasks, "tasks", 24, "task-flow length")
	fs.Float64Var(&o.target, "target", 0.1, "allowed QoS-violation fraction (latency error budget)")
	fs.Float64Var(&o.budget, "budget", 10, "per-model average power budget in watts (<0 disables the energy objective)")
	fs.StringVar(&o.sloOut, "slo-out", "slo_status.json", "SLO status JSON output path (empty = skip)")
	fs.StringVar(&o.ledgerOut, "ledger-out", "slo_ledger.json", "energy-attribution ledger JSON output path (empty = skip)")
	fs.StringVar(&o.metricsOut, "metrics-out", "slo_metrics.prom", "Prometheus text output path (empty = skip)")
	fs.StringVar(&o.serve, "serve", "", "serve live telemetry on this address (e.g. :8080; empty = off)")
	fs.DurationVar(&o.serveFor, "serve-for", 0, "with -serve: keep serving this long after the run (0 = until interrupted)")
	fs.StringVar(&o.runDir, "run-dir", "", "record manifest + artifacts in this run-provenance store (empty = off)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, positiveFlags(fs, "tasks")
}

// runSLO executes the attributed scenario on TX2: a guarded MultiPlan task
// flow feeding the energy-attribution ledger and the SLO burn-rate tracker.
// With -serve the tracker is mounted on the live server BEFORE the run, so
// GET /slo answers with the current burn state while the flow executes; the
// ledger and SLO status land as JSON artifacts and new ledger_*/slo_* metric
// families in the Prometheus export.
func runSLO(args []string) {
	f, err := parseSLOFlags(args)
	if err != nil {
		os.Exit(2)
	}

	o := obs.New()
	store := openRunStore(f.runDir)
	srv, running := startTelemetry(f.serve, o, store)

	opt := experiments.SLOOptions{
		Tasks: f.tasks, Seed: f.seed,
		ViolationTarget: f.target, PowerBudgetW: f.budget,
		Obs: o,
	}
	tracker := slo.New(opt.TrackerConfig())
	opt.Tracker = tracker
	if srv != nil {
		srv.SetSLO(tracker)
	}

	env := buildEnv(f.networks, f.seed)

	var run *runlog.Run
	if store != nil {
		run = beginRun(store, "slo", "TX2", f.seed, struct {
			Networks, Tasks int
			Target, PowerW  float64
			Seed            int64
		}{f.networks, f.tasks, f.target, f.budget, f.seed})
		if srv != nil {
			srv.SetLiveRun(run.ID())
		}
	}

	start := time.Now()
	d, err := experiments.SLO(env, hw.TX2(), opt)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)
	fmt.Println(experiments.RenderSLO(d))
	if err := exportObs(d.Obs, nil, "", f.metricsOut); err != nil {
		fail(err)
	}
	if err := writeJSONFile(f.sloOut, d.Status); err != nil {
		fail(err)
	}
	if err := writeJSONFile(f.ledgerOut, d.Ledger); err != nil {
		fail(err)
	}

	if run != nil {
		err := run.WriteArtifact("slo.json", func(w io.Writer) error {
			return tracker.WriteJSON(w)
		})
		if err != nil {
			fail(err)
		}
		err = run.WriteArtifact("ledger.json", func(w io.Writer) error {
			return writeIndentedJSON(w, d.Ledger)
		})
		if err != nil {
			fail(err)
		}
		metrics := map[string]float64{}
		for k, v := range d.Flow.Headline() {
			metrics["flow_"+k] = v
		}
		for k, v := range tracker.HeadlineMetrics() {
			metrics[k] = v
		}
		finishRun(run, d.Obs, d.Events, wall, metrics)
	}
	lingerTelemetry(running, f.serveFor)
}

// writeJSONFile writes v as indented JSON to path ("" = skip).
func writeJSONFile(path string, v any) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeIndentedJSON(f, v); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
