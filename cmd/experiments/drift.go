package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"powerlens/internal/experiments"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/obs/audit"
	"powerlens/internal/obs/runlog"
	"powerlens/internal/obs/slo"
)

// driftFlags is the parsed flag set for `experiments drift`.
type driftFlags struct {
	networks    int
	seed        int64
	traffic     int
	audited     int
	threshold   float64
	auditOut    string
	driftOut    string
	baselineOut string
	metricsOut  string
	serve       string
	serveFor    time.Duration
	runDir      string
}

func parseDriftFlags(args []string) (driftFlags, error) {
	var o driftFlags
	fs := flag.NewFlagSet("drift", flag.ContinueOnError)
	fs.IntVar(&o.networks, "networks", 400, "random networks per platform for deployment")
	fs.Int64Var(&o.seed, "seed", 1, "master seed for the live traffic")
	fs.IntVar(&o.traffic, "traffic", 128, "live networks per phase observed by the drift monitor")
	fs.IntVar(&o.audited, "audited", 6, "networks per phase running the full audited pipeline")
	fs.Float64Var(&o.threshold, "threshold", audit.DefaultDriftThreshold, "PSI alert threshold")
	fs.StringVar(&o.auditOut, "audit-out", "drift_audit.json", "audit snapshot JSON output path (empty = skip)")
	fs.StringVar(&o.driftOut, "drift-out", "drift_status.json", "per-phase drift status JSON output path (empty = skip)")
	fs.StringVar(&o.baselineOut, "baseline-out", "", "write the training drift baseline as a PLAB artifact (empty = skip)")
	fs.StringVar(&o.metricsOut, "metrics-out", "drift_metrics.prom", "Prometheus text output path (empty = skip)")
	fs.StringVar(&o.serve, "serve", "", "serve live telemetry on this address (e.g. :8080; empty = off)")
	fs.DurationVar(&o.serveFor, "serve-for", 0, "with -serve: keep serving this long after the run (0 = until interrupted)")
	fs.StringVar(&o.runDir, "run-dir", "", "record manifest + artifacts in this run-provenance store (empty = off)")
	err := fs.Parse(args)
	if err == nil {
		err = positiveFlags(fs, "traffic", "audited", "threshold")
	}
	if err == nil && o.audited > o.traffic {
		err = fmt.Errorf("-audited %d must not exceed -traffic %d", o.audited, o.traffic)
		fmt.Fprintln(fs.Output(), err)
	}
	return o, err
}

// runDrift executes the decision-provenance scenario on TX2: two phases of
// live traffic against the deployed framework — first in-distribution, then
// with an injected generator shift — with the audit recorder and the PSI
// drift monitor attached. With -serve the recorder is mounted on the live
// server BEFORE the run, so GET /audit and GET /drift answer while traffic
// flows; drift alerts are folded into the SLO tracker served on GET /slo.
func runDrift(args []string) {
	f, err := parseDriftFlags(args)
	if err != nil {
		os.Exit(2)
	}

	o := obs.New()
	store := openRunStore(f.runDir)
	srv, running := startTelemetry(f.serve, o, store)

	rec := audit.New(audit.Config{})
	tracker := slo.New(slo.Config{})
	if srv != nil {
		srv.SetAudit(rec)
		srv.SetSLO(tracker)
	}

	env := buildEnv(f.networks, f.seed)

	var run *runlog.Run
	if store != nil {
		run = beginRun(store, "drift", "TX2", f.seed, struct {
			Networks, Traffic, Audited int
			Threshold                  float64
			Seed                       int64
		}{f.networks, f.traffic, f.audited, f.threshold, f.seed})
		if srv != nil {
			srv.SetLiveRun(run.ID())
		}
	}

	opt := experiments.DriftOptions{
		Traffic: f.traffic, Networks: f.audited, Seed: f.seed,
		Threshold: f.threshold,
		Obs:       o, Recorder: rec, Tracker: tracker,
	}
	start := time.Now()
	d, err := experiments.Drift(env, hw.TX2(), opt)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)
	fmt.Println(experiments.RenderDrift(d))
	if err := exportObs(d.Obs, nil, "", f.metricsOut); err != nil {
		fail(err)
	}
	if err := writeJSONFile(f.auditOut, d.Audit); err != nil {
		fail(err)
	}
	phases := struct {
		InDistribution audit.DriftStatus `json:"inDistribution"`
		Shifted        audit.DriftStatus `json:"shifted"`
	}{d.InDistribution, d.Shifted}
	if err := writeJSONFile(f.driftOut, phases); err != nil {
		fail(err)
	}
	if f.baselineOut != "" {
		base := env.Frameworks[hw.TX2().Name].Baseline
		if err := os.WriteFile(f.baselineOut, base.EncodeBinary(), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", f.baselineOut)
	}

	if run != nil {
		err := run.WriteArtifact("audit.json", func(w io.Writer) error {
			return rec.WriteJSON(w)
		})
		if err != nil {
			fail(err)
		}
		err = run.WriteArtifact("drift.json", func(w io.Writer) error {
			return writeIndentedJSON(w, phases)
		})
		if err != nil {
			fail(err)
		}
		err = run.WriteArtifact("baseline.plqs", func(w io.Writer) error {
			_, werr := w.Write(env.Frameworks[hw.TX2().Name].Baseline.EncodeBinary())
			return werr
		})
		if err != nil {
			fail(err)
		}
		metrics := map[string]float64{
			"drift_max_psi_in_distribution": d.InDistribution.MaxScore,
			"drift_max_psi_shifted":         d.Shifted.MaxScore,
			"drift_alerting_dims":           float64(d.Shifted.AlertingDims),
			"audit_records":                 float64(d.Audit.Records),
		}
		finishRun(run, d.Obs, d.Events, wall, metrics)
	}
	lingerTelemetry(running, f.serveFor)
}
