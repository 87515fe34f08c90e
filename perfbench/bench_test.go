package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerlens/internal/cloud"
)

// small shrinks a workload so a run takes seconds: one set-up, one or two
// repetitions, a short trace.
func small(t *testing.T, workload string, seed int64, trace bool) options {
	o := defaults(workload)
	o.seed = seed
	o.seconds = time.Second
	o.trace = trace
	o.spans = filepath.Join(t.TempDir(), "spans.json")
	o.setups, o.networks, o.warmNets = 1, 120, 24
	o.rounds, o.passes, o.flowPer = 1, 1, 1
	o.minReps, o.checkJobs = 1, 60
	switch workload {
	case "fleet":
		o.jobs = 3000
	case "fleet-observed":
		o.jobs = 150
	}
	return o
}

type benchFile struct {
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name string }               `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	f := readBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	for _, w := range f.Workloads {
		if w.Name != "deploy" && w.Name != "fleet" && w.Name != "fleet-observed" {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
}

// TestSmallRunsPrintEveryMetric runs every workload untraced and traced at a
// seed other than the default and checks that the summary line names every
// metric of BENCHMARK.json with its unit and that every output check passes.
func TestSmallRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkJSON(t)
	for _, w := range f.Workloads {
		for _, trace := range []bool{false, true} {
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			var out, errOut bytes.Buffer
			if err := run(small(t, w.Name, 2, trace), &out, &errOut); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var s summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
				t.Fatalf("%s trace=%v: last line is not the summary: %v", w.Name, trace, err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, s.Correct, s.Failed, s.Attempted, errOut.String())
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.Name, trace, len(s.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := s.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestOutputChecksPassAtAnotherSeed repeats the checked workloads at a third
// seed: Table 1 wins, macro ≡ micro, and the observed exports.
func TestOutputChecksPassAtAnotherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"deploy", "fleet", "fleet-observed"} {
		var out, errOut bytes.Buffer
		if err := run(small(t, w, 7, false), &out, &errOut); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !strings.Contains(out.String(), `"correct":true`) {
			t.Errorf("%s at seed 7: checks failed\n%s", w, errOut.String())
		}
	}
}

func TestSameResultReportsDifference(t *testing.T) {
	a := cloud.Result{TotalImages: 100, TotalEnergyJ: 50, Nodes: []cloud.NodeResult{{Node: 0, Jobs: 2}}}
	if err := sameResult(a, a); err != nil {
		t.Fatalf("identical results reported different: %v", err)
	}
	b := a
	b.Nodes = []cloud.NodeResult{{Node: 0, Jobs: 3}}
	err := sameResult(a, b)
	if err == nil || !strings.Contains(err.Error(), "Nodes") {
		t.Fatalf("different node results: got %v, want an error naming Nodes", err)
	}
	c := a
	c.TotalEnergyJ = 50.000001
	if err := sameResult(a, c); err == nil || !strings.Contains(err.Error(), "TotalEnergyJ") {
		t.Fatalf("different energy: got %v, want an error naming TotalEnergyJ", err)
	}
}

func TestLayerAttribution(t *testing.T) {
	names := []string{
		"runtime.mallocgc",                            // 1
		"math.Pow",                                    // 2
		"powerlens/internal/hw.(*Platform).knee",      // 3
		"powerlens/internal/sim.(*Executor).advance",  // 4
		"runtime.gcBgMarkWorker",                      // 5
		"main.(*bench).fleetRep",                      // 6
		"powerlens/internal/obs/ledger.(*Ledger).Add", // 7
		"powerlens/internal/experiments.Table1",       // 8
	}
	pr := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}, strings: append([]string{""}, names...)}
	for i := range names {
		id := uint64(i + 1)
		pr.functions[id] = int64(i + 1)
		pr.locations[id] = []uint64{id}
	}
	pr.locations[9] = []uint64{2, 3} // math.Pow inlined into the hw frame
	for _, c := range []struct {
		stack []uint64
		want  string
	}{
		{[]uint64{1, 2, 3, 4}, "hw"}, // stdlib and runtime frames go to their caller's layer
		{[]uint64{9, 4}, "hw"},       // inlined frames count too
		{[]uint64{4, 6}, "sim"},      // innermost layer wins over the benchmark
		{[]uint64{1, 5}, "gc"},       // GC worker
		{[]uint64{1, 6}, "other"},    // the benchmark's own code
		{[]uint64{7, 4}, "obs"},      // sub-packages belong to their layer
		{[]uint64{8}, "other"},       // modules off the benchmarked paths
	} {
		if got := pr.layerOf(c.stack); got != c.want {
			t.Errorf("stack %v: layer %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestAttributeRealProfile(t *testing.T) {
	p := newProfiler()
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		calibrate()
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.finish(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, v := range p.cpu {
		total += v
	}
	if total == 0 || p.cpu["other"] < total/2 {
		t.Fatalf("a profile of the benchmark's own loop should be mostly %q, got %v", "other", p.cpu)
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder("test")
	r.spans = []span{
		{ID: 1, Name: "cloud.Run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "governor.NewGuard", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "governor.NewGuard", Start: 20, End: 40}, // parallel with 2
		{ID: 4, Name: "core.Analyze", Start: 150, End: 160},
		{ID: 5, Name: "core.Analyze", Start: 300, End: 310}, // outside the window
	}
	// cloud.Run: 100 - 30 covered; children 20 + 20; core.Analyze 10.
	if got := r.selfTime([]window{{0, 200}}); got != 70+40+10 {
		t.Fatalf("self time %v, want 120", got)
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet", "--seconds", "0"},
		{"--workload", "fleet", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := cliMain(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
