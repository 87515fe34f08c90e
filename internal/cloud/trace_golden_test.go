package cloud

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs"
	"powerlens/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// flakyCtl holds a valid level except for a run of out-of-range decisions
// between two window counts, so a guard around it strikes, fails over and
// later recovers.
type flakyCtl struct {
	p           *hw.Platform
	windows     int
	from, until int
}

func (f *flakyCtl) Name() string                  { return "flaky" }
func (f *flakyCtl) Reset(p *hw.Platform)          { f.p, f.windows = p, 0 }
func (f *flakyCtl) CPULevel() int                 { return len(f.p.CPUFreqsHz) - 1 }
func (f *flakyCtl) BeforeLayer(*graph.Graph, int) {}
func (f *flakyCtl) OnWindow(sim.WindowStats)      { f.windows++ }
func (f *flakyCtl) GPULevel() int {
	if f.windows >= f.from && f.windows < f.until {
		return f.p.NumGPULevels() + 3
	}
	return 2 + f.windows%5
}

// goldenExports are the pinned outputs of one golden run.
type goldenExports struct {
	trace  []byte // Chrome trace of the fleet and the guarded board
	prom   []byte // Prometheus page right after the fleet run
	result []byte // the fleet's cloud.Result as indented JSON
}

// goldenTraceRun records a small fixed run that exercises every trace
// category and argument kind: a faulty three-node fleet on reactive
// governors (decision instants, actuation spans with attempts/stuck/clamped,
// block spans, sensor-noise and actuation fault instants, lost/failover/
// dropped job events, node crashes, and steals on the sharded dispatcher),
// plus a guarded single board on track 1 whose wrapped policy misbehaves
// for a while (guard decision, violation, fallback and recovery instants).
// The fleet's Prometheus page (job outcomes, lost energy, nodes lost) and
// its Result (lost images, failovers, drops, mean turnaround) are taken
// before the board runs, so they cover the fleet alone.
func goldenTraceRun(t *testing.T, shards int) goldenExports {
	t.Helper()
	p := hw.TX2()
	jobs := RandomJobs(14, 300*time.Millisecond, 5)
	for i := range jobs {
		jobs[i].Images = 1 + i%3
	}
	o := obs.New()
	res, err := Run(Config{
		Nodes:    3,
		Platform: p,
		NewCtl:   func() sim.Controller { return governor.NewOndemand() },
		Faults: hw.FaultConfig{
			Seed:              41,
			SensorDropoutProb: 0.05, SensorNoiseFrac: 0.2,
			StuckProb: 0.3, ClampProb: 0.15,
			DelayProb: 0.2, DelayLatency: 2 * time.Millisecond,
			NodeCrashProb: 1, NodeCrashMTBF: 2 * time.Second,
		},
		Obs:        o,
		Shards:     shards,
		AdmitBatch: 4,
		StealSeed:  3,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var out goldenExports
	var prom bytes.Buffer
	if err := o.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out.prom = prom.Bytes()
	if out.result, err = json.MarshalIndent(res, "", "  "); err != nil {
		t.Fatal(err)
	}

	guard := governor.NewGuard(&flakyCtl{from: 3, until: 9})
	guard.MaxStrikes, guard.RecoveryWindows = 2, 3
	guard.Obs = o
	e := sim.NewExecutor(p, guard)
	e.Obs = o
	e.RunTask(models.MustBuild("alexnet"), 40)

	var trace bytes.Buffer
	if err := o.Tracer.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	out.trace = trace.Bytes()
	return out
}

// TestTraceGolden pins, byte for byte on both dispatchers, the Chrome trace
// export and the crashy fleet's Prometheus page and Result. A diff means a
// surface drifted — update deliberately with `go test -update ./internal/cloud`.
func TestTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single", 1}, {"sharded", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenTraceRun(t, tc.shards)
			checkGolden(t, "trace_"+tc.name+".golden.json", got.trace)
			checkGolden(t, "metrics_"+tc.name+".golden.prom", got.prom)
			checkGolden(t, "result_"+tc.name+".golden.json", got.result)
		})
	}
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test -update ./internal/cloud` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-120, 0)
		t.Fatalf("output differs from %s at byte %d (got %d bytes, want %d):\ngot  …%s\nwant …%s",
			path, i, len(got), len(want), got[lo:min(i+120, len(got))], want[lo:min(i+120, len(want))])
	}
}
