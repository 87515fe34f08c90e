// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a given seed and prints its metrics by name, unit and
// direction; the last line of standard output is a JSON summary:
//
//	bash perfbench/run.sh --workload fleet --seed 3 --seconds 20 --trace 0
//
// Workloads (see NOTES.md for why each exists and what it stresses):
//
//	deploy          offline path: dataset generation, training, uncached
//	                Analyze, Table 1 and a Fig. 5 task flow
//	fleet           serving fast path: plan-cache lookups and a long sharded,
//	                macro-stepped cloud.Run
//	fleet-observed  the same fleet, single queue, Guard controllers, with the
//	                metrics, trace, ledger and audit sinks and their exports
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
// alternates untraced and traced repetitions, records a span around every
// call the benchmark makes into a layer, profiles the process, and prints the
// per-layer metrics instead.
//
// The benchmark calls only exported functions of the internal packages and
// times them from outside; it changes no program code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"powerlens/internal/hw"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// options sizes a run. defaults gives the benchmark's sizes; the tests use
// smaller ones.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spans    string // where a traced run writes its spans

	setups      int // set-ups per run; setup_s is their median
	networks    int // random networks per deployment
	warmNets    int // networks in the deploy workload's warm-up round
	rounds      int // distinct deployments the deploy workload pools quality over
	passes      int // uncached Analyze passes per deploy round
	flowPer     int // Fig. 5 tasks per evaluation network
	images      int // images per Table 1 / Fig. 5 task
	jobs        int // fleet trace length
	gap         time.Duration
	nodes       int
	shards      int
	lookupBatch int // plan-cache lookups timed as one span
	checkJobs   int // trace prefix re-run micro-stepped by the fleet check
	minReps     int
}

func defaults(workload string) options {
	o := options{
		workload:    workload,
		setups:      3,
		networks:    200,
		warmNets:    40,
		rounds:      6,
		passes:      2,
		flowPer:     4,
		images:      50,
		gap:         4 * time.Second,
		nodes:       8,
		lookupBatch: 1024,
		checkJobs:   500,
		minReps:     3,
	}
	switch workload {
	case "fleet":
		o.jobs, o.shards = 100_000, 2
	case "fleet-observed":
		o.jobs = 500
	}
	return o
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "deploy, fleet or fleet-observed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	spans := fs.String("spans", "", "file a traced run writes its spans to (default .bench_build/spans-<workload>-s<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *workload != "deploy" && *workload != "fleet" && *workload != "fleet-observed":
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want deploy, fleet or fleet-observed)\n", *workload)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	o := defaults(*workload)
	o.seed = *seed
	o.seconds = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1
	o.spans = *spans
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans-%s-s%d.json", o.workload, o.seed)
	}
	if err := run(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// bench is one run's state: the recorder and profiler of a traced run, the
// tally of attempted and failed operations, and the collected values.
type bench struct {
	opt  options
	p    *hw.Platform
	rec  *recorder // nil in an untraced run
	prof *profiler // nil in an untraced run

	attempted, failed int
	problems          []string

	vals  map[string]float64
	calib []float64 // host.calib_ms before each repetition

	repWall [2][]time.Duration // repetition wall times: [0] untraced, [1] traced
	traced  []window           // recorder time covered by traced repetitions
	extra   []string           // human-readable context lines

	tableNets, tableWins int // Table 1 networks checked; won against all baselines
}

func run(o options, stdout, stderr io.Writer) error {
	b := &bench{opt: o, p: hw.TX2(), vals: map[string]float64{}}
	if o.trace {
		b.rec = newRecorder(fmt.Sprintf("%s-s%d-%d", o.workload, o.seed, processStart.UnixNano()))
		b.rec.setOn(true) // set-up is traced too; repetitions alternate
		b.prof = newProfiler()
	}
	var err error
	switch o.workload {
	case "deploy":
		err = b.runDeploy()
	default:
		err = b.runFleet(o.workload == "fleet-observed")
	}
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.vals["peak_rss_mb"] = rss
	b.vals["host.calib_ms"] = median(b.calib)
	b.extra = append(b.extra, fmt.Sprintf("Table 1: PowerLens beats all three baselines on %d of %d networks checked", b.tableWins, b.tableNets))
	if o.trace {
		if err := b.finishTrace(); err != nil {
			return err
		}
	}
	for i, p := range b.problems {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... %d more failures\n", len(b.problems)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", p)
	}
	return b.report(stdout)
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error, what string) bool {
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// check counts one output check.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// measure runs repetitions of the measured phase until the time budget is
// spent and at least minReps have run. Before each one it drops the previous
// repetition's outputs (release), collects garbage so that one repetition's
// garbage is not collected inside the next, and times the calibration loop.
// In a traced run odd repetitions are traced and profiled; even ones are
// not, and give the baseline for trace.overhead_pct.
func (b *bench) measure(minReps int, release func(), rep func(i int, traced bool)) error {
	if b.opt.trace && minReps < 2 {
		minReps = 2
	}
	b.rec.setOn(false)
	deadline := time.Now().Add(b.opt.seconds)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		if release != nil {
			release()
		}
		runtime.GC()
		b.calib = append(b.calib, float64(calibrate())/1e6)
		traced := b.opt.trace && i%2 == 1
		var w window
		if traced {
			if err := b.prof.start(); err != nil {
				return err
			}
			b.rec.setOn(true)
			w.start = b.rec.now()
		}
		t := time.Now()
		rep(i, traced)
		d := time.Since(t)
		if traced {
			w.end = b.rec.now()
			b.rec.setOn(false)
			if err := b.prof.stop(); err != nil {
				return err
			}
			b.traced = append(b.traced, w)
			b.repWall[1] = append(b.repWall[1], d)
		} else {
			b.repWall[0] = append(b.repWall[0], d)
		}
	}
	b.extra = append(b.extra, fmt.Sprintf("repetitions: %d untraced, %d traced, over %.1f s",
		len(b.repWall[0]), len(b.repWall[1]), (sumDur(b.repWall[0])+sumDur(b.repWall[1])).Seconds()))
	return nil
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// finishTrace derives the trace-wide per-layer metrics and writes the spans.
func (b *bench) finishTrace() error {
	if err := b.prof.finish(); err != nil {
		return err
	}
	var cpuTotal int64
	for _, v := range b.prof.cpu {
		cpuTotal += v
	}
	for _, l := range append(append([]string{}, layers...), "gc", "other") {
		b.vals["cpu_share."+l] = ratio(float64(b.prof.cpu[l]), float64(cpuTotal))
	}
	nTraced := float64(len(b.repWall[1]))
	for _, l := range append(append([]string{}, layers...), "other") {
		b.vals["wait."+l+"_ms"] = ratio(float64(b.prof.wait[l])/1e6, nTraced)
	}
	var wall time.Duration
	for _, w := range b.traced {
		wall += w.end - w.start
	}
	b.vals["trace.cover_ratio"] = ratio(float64(b.rec.selfTime(b.traced)), float64(wall))
	untraced, traced := durMedian(b.repWall[0]), durMedian(b.repWall[1])
	b.vals["trace.overhead_pct"] = (ratio(float64(traced), float64(untraced)) - 1) * 100
	if err := b.rec.write(b.opt.spans); err != nil {
		return err
	}
	b.extra = append(b.extra, fmt.Sprintf("spans: %s (run id %s)", b.opt.spans, b.rec.runID))
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints every metric of the run's kind with unit and direction, then
// the JSON summary as the last line.
func (b *bench) report(w io.Writer) error {
	specs := endToEnd
	kind := "end-to-end"
	if b.opt.trace {
		specs, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "perfbench %s seed %d: %s metrics, TX2, GOMAXPROCS %d\n",
		b.opt.workload, b.opt.seed, kind, runtime.GOMAXPROCS(0))
	for _, line := range b.extra {
		fmt.Fprintf(w, "  %s\n", line)
	}
	out := summary{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	for _, s := range specs {
		v, ok := b.vals[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
		fmt.Fprintf(w, "  %-28s %16.6g %-6s (%s is better)\n", s.name, v, s.unit, s.better)
	}
	fmt.Fprintf(w, "  %-28s %16.6g %-6s (lower is better; %d of %d operations failed)\n",
		"failed_ratio", ratio(float64(b.failed), float64(b.attempted)), "ratio", b.failed, b.attempted)
	if !b.opt.trace {
		fmt.Fprintf(w, "  %-28s %16.6g %-6s (diagnostic: fixed ALU loop, median of %d)\n",
			"host.calib_ms", b.vals["host.calib_ms"], "ms", len(b.calib))
	}
	if out.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// seedFor derives the seed of a workload's k-th deployment from the run's
// seed, so that runs with neighbouring seeds share no deployment.
func seedFor(seed int64, k int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 2)
}
