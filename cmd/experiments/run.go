package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"powerlens/internal/core"
	"powerlens/internal/experiments"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/report"
	"powerlens/internal/sim"
)

// buildEnv deploys PowerLens on both platforms at the requested scale.
func buildEnv(numNetworks int, seed int64) *experiments.Env {
	cfg := core.DefaultDeployConfig()
	cfg.NumNetworks = numNetworks
	cfg.Seed = seed
	fmt.Fprintf(os.Stderr, "deploying PowerLens on TX2 and AGX (%d random networks each)...\n", numNetworks)
	start := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deploy failed:", err)
		os.Exit(1)
	}
	for _, p := range hw.Platforms() {
		r := env.Reports[p.Name]
		fmt.Fprintf(os.Stderr, "  %s: hyper model acc %.1f%%, decision model acc %.1f%% (mean level error %.2f), %d block samples\n",
			p.Name, r.HyperAccuracy*100, r.DecisionAccuracy*100, r.DecisionMeanLevelError, r.NumBlocks)
	}
	fmt.Fprintf(os.Stderr, "deployment done in %v\n\n", time.Since(start).Round(time.Millisecond))
	return env
}

// expFlags parses the common -networks/-seed flags for experiment commands.
func expFlags(args []string) (networks int, seed int64, rest []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	n := fs.Int("networks", 400, "random networks per platform for deployment")
	s := fs.Int64("seed", 1, "master seed")
	fs.Parse(args)
	return *n, *s, fs.Args()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// positiveFlags checks that each named int or float64 flag of fs is positive,
// and a float64 also finite. The scenario libraries replace zero with their
// default, so on the command line a value that fails is a mistake; it is
// reported like a flag error, on the flag set's output, naming the flag.
func positiveFlags(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		var err error
		switch v := fs.Lookup(name).Value.(flag.Getter).Get().(type) {
		case int:
			if v <= 0 {
				err = fmt.Errorf("-%s must be positive, got %d", name, v)
			}
		case float64:
			if !(v > 0) || math.IsInf(v, 1) {
				err = fmt.Errorf("-%s must be positive and finite, got %v", name, v)
			}
		}
		if err != nil {
			fmt.Fprintln(fs.Output(), err)
			return err
		}
	}
	return nil
}

// runAll deploys once and regenerates every table and figure.
func runAll(args []string) {
	n, seed, _ := expFlags(args)
	env := buildEnv(n, seed)
	runTable1WithEnv(env)
	runTable2WithEnv(env)
	runTable3WithEnv(env)
	runFig5WithEnv(env, 100)
	runFig1WithEnv(env, false)
	runExtWithEnv(env)
	runThermalWithEnv(env)
	runResilienceWithEnv(env, 40, 4, 40, seed)
	runSwitch()
}

func runThermal(args []string) {
	n, seed, _ := expFlags(args)
	runThermalWithEnv(buildEnv(n, seed))
}

func runThermalWithEnv(env *experiments.Env) {
	const images = 600
	for _, p := range hw.Platforms() {
		rows, err := experiments.ThermalStudy(env, p, images)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderThermal(p.Name, images, rows))
	}
}

func runExt(args []string) {
	n, seed, _ := expFlags(args)
	runExtWithEnv(buildEnv(n, seed))
}

func runExtWithEnv(env *experiments.Env) {
	for _, p := range hw.Platforms() {
		rows, err := experiments.Extensions(env, p)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderExtensions(p.Name, rows))
	}
}

func runTable1(args []string) {
	n, seed, _ := expFlags(args)
	runTable1WithEnv(buildEnv(n, seed))
}

func runTable1WithEnv(env *experiments.Env) {
	for _, p := range hw.Platforms() {
		rows, err := experiments.Table1(env, p)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderTable1(p.Name, rows))
	}
}

func runTable2(args []string) {
	n, seed, _ := expFlags(args)
	runTable2WithEnv(buildEnv(n, seed))
}

func runTable2WithEnv(env *experiments.Env) {
	for _, p := range hw.Platforms() {
		rows, err := experiments.Table2(env, p, 5)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderTable2(p.Name, rows))
	}
}

func runTable3(args []string) {
	n, seed, _ := expFlags(args)
	runTable3WithEnv(buildEnv(n, seed))
}

func runTable3WithEnv(env *experiments.Env) {
	var data []*experiments.Table3Data
	for _, p := range hw.Platforms() {
		d, err := experiments.Table3(env, p)
		if err != nil {
			fail(err)
		}
		data = append(data, d)
	}
	fmt.Println(experiments.RenderTable3(data[0], data[1]))
}

func runFig5(args []string) {
	n, seed, rest := expFlags(args)
	numTasks := 100
	if len(rest) > 0 {
		fmt.Sscanf(rest[0], "%d", &numTasks)
	}
	runFig5WithEnv(buildEnv(n, seed), numTasks)
}

func runFig5WithEnv(env *experiments.Env, numTasks int) {
	for _, p := range hw.Platforms() {
		results, err := experiments.Fig5(env, p, numTasks, 42)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig5(p.Name, numTasks, results))
	}
}

func runFig1(args []string) {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	n := fs.Int("networks", 400, "random networks per platform for deployment")
	s := fs.Int64("seed", 1, "master seed")
	csvDir := fs.String("csv", "", "write per-method tegrastats CSV traces into this directory")
	traceOut := fs.String("trace-out", "", "write per-method Chrome trace JSON (empty = off)")
	metricsOut := fs.String("metrics-out", "", "write per-method Prometheus text (empty = off)")
	fs.Parse(args)
	env := buildEnv(*n, *s)
	if *csvDir != "" {
		writeFig1CSVs(env, *csvDir)
		return
	}
	if *traceOut != "" || *metricsOut != "" {
		o := obs.New()
		traces, err := experiments.Fig1Observed(env, hw.TX2(), o)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig1(traces))
		if err := exportObs(o, o.Tracer.Events(), *traceOut, *metricsOut); err != nil {
			fail(err)
		}
		return
	}
	runFig1WithEnv(env, true)
}

// writeFig1CSVs exports the Figure 1 traces as CSV files for plotting.
func writeFig1CSVs(env *experiments.Env, dir string) {
	traces, err := experiments.Fig1(env, hw.TX2())
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	for _, tr := range traces {
		path := filepath.Join(dir, "fig1_"+strings.ReplaceAll(tr.Method, "-", "_")+".csv")
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := sim.WriteTraceCSV(f, tr.Samples); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s (%d samples)\n", path, len(tr.Samples))
	}
}

func runFig1WithEnv(env *experiments.Env, printTraces bool) {
	p := hw.TX2()
	traces, err := experiments.Fig1(env, p)
	if err != nil {
		fail(err)
	}
	fmt.Println(experiments.RenderFig1(traces))
	if !printTraces {
		return
	}
	fmt.Println("frequency traces (time_ms freq_MHz per method):")
	for _, tr := range traces {
		fmt.Printf("# %s\n", tr.Method)
		for i, s := range tr.Samples {
			if i%10 != 0 { // thin the trace for terminal output
				continue
			}
			fmt.Printf("%8.0f %8.1f\n", float64(s.At.Milliseconds()), s.FreqHz/1e6)
		}
	}
}

func runSwitch() {
	fmt.Println("§3.3 microbenchmark: 100 DVFS level changes")
	for _, p := range hw.Platforms() {
		total := experiments.SwitchOverhead(p, 100)
		fmt.Printf("%-4s total %-8v (avg %v per change; pipeline stall %v per change)\n",
			p.Name, total, total/100, p.SwitchLatency)
	}
}

// runReport collects every experiment and writes the self-contained HTML
// report with inline SVG figures.
func runReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	n := fs.Int("networks", 400, "random networks per platform for deployment")
	s := fs.Int64("seed", 1, "master seed")
	out := fs.String("o", "report.html", "output path")
	tasks := fs.Int("tasks", 50, "task-flow length for Figure 5")
	fs.Parse(args)

	env := buildEnv(*n, *s)
	data, err := report.Collect(env, *tasks)
	if err != nil {
		fail(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := report.WriteHTML(f, data); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
