package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spec names one printed metric. The lists below are the benchmark's
// contract: BENCHMARK.json at the repository root repeats them, and
// TestMetricsMatchBenchmarkJSON keeps the two in step.
type spec struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run prints. Every workload prints all
// of them; NOTES.md gives each one's definition per workload.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"deploy_s", "s", "lower"},
	{"analyze_ms", "ms", "lower"},
	{"sim_images_per_s", "img/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"ee_gain_vs_bim_pct", "%", "higher"},
	{"hyper_accuracy", "ratio", "higher"},
	{"decision_accuracy", "ratio", "higher"},
	{"ee_img_per_j", "img/J", "higher"},
	{"turnaround_s", "s", "lower"},
}

// layers are the repository's modules on the benchmarked paths, in the order
// the per-layer shares are printed.
var layers = []string{
	"tensor", "graph", "models", "features", "cluster", "hw", "sim",
	"governor", "nn", "dataset", "core", "cloud", "obs",
}

// perLayer are the metrics a traced run prints.
var perLayer = func() []spec {
	s := []spec{
		{"dataset.generate_s", "s", "lower"},
		{"dataset.blocks", "count", "higher"},
		{"core.train_s", "s", "lower"},
		{"features.extract_ms", "ms", "lower"},
		{"nn.predict_us", "us", "lower"},
		{"cluster.view_ms", "ms", "lower"},
		{"core.analyze_mallocs", "count", "lower"},
		{"core.analyze_alloc_mb", "MB", "lower"},
		{"sim.layer_steps_per_s", "1/s", "higher"},
		{"sim.macro_hit_ratio", "ratio", "higher"},
		{"sim.macro_fills", "count", "lower"},
		{"sim.macro_aborts", "count", "lower"},
		{"sim.macro_demoted", "count", "lower"},
		{"sim.passes", "count", "higher"},
		{"core.plan_lookup_ns", "ns", "lower"},
		{"core.plan_cache_hit_ratio", "ratio", "higher"},
		{"cloud.run_s", "s", "lower"},
		{"cloud.run_alloc_mb", "MB", "lower"},
		{"cloud.probe_share", "ratio", "lower"},
		{"obs.export_s", "s", "lower"},
		{"obs.export_mb", "MB", "lower"},
		{"obs.trace_events", "count", "lower"},
		{"governor.guard_fallbacks", "count", "lower"},
	}
	for _, l := range append(append([]string{}, layers...), "gc", "other") {
		s = append(s, spec{"cpu_share." + l, "ratio", "lower"})
	}
	for _, l := range append(append([]string{}, layers...), "other") {
		s = append(s, spec{"wait." + l + "_ms", "ms", "lower"})
	}
	return append(s,
		spec{"trace.cover_ratio", "ratio", "higher"},
		spec{"trace.overhead_pct", "%", "lower"},
		spec{"host.calib_ms", "ms", "lower"},
	)
}()

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

const mib = 1 << 20

// calibSink keeps the calibration loop's result live so the compiler cannot
// drop the loop.
var calibSink uint64

// calibrate times a fixed xorshift loop: pure ALU work that touches no
// memory, so its duration tracks only how fast the host runs this process
// right now. Printed as host.calib_ms beside every run, it tells a slow-host
// episode apart from a regression; it is never used to correct a metric.
func calibrate() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(t)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb * 1024 / mib, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}
