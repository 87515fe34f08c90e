package cloud

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"powerlens/internal/hw"
	"powerlens/internal/obs"
)

// runCfg runs the cluster and fails the test on error.
func runCfg(t *testing.T, cfg Config, jobs []Job) Result {
	t.Helper()
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedCountOfOneMatchesZero pins how Run reads a shard count of one:
// Shards 1, and Shards 8 clamped to a single node, both select the single
// queue, so each gives the same Result as Shards 0, fault-free and degraded
// alike. The sharded dispatcher itself only runs at two or more shards.
func TestShardedCountOfOneMatchesZero(t *testing.T) {
	p := hw.TX2()
	jobs := testJobs(20)
	cases := []struct {
		name   string
		faults hw.FaultConfig
	}{
		{"fault-free", hw.FaultConfig{}},
		{"crashy", crashyFaults(5)},
	}
	for _, tc := range cases {
		zero := runCfg(t, Config{Nodes: 4, Platform: p, NewCtl: staticFactory(7), Faults: tc.faults}, jobs)
		one := runCfg(t, Config{Nodes: 4, Platform: p, NewCtl: staticFactory(7), Faults: tc.faults, Shards: 1}, jobs)
		if !reflect.DeepEqual(zero, one) {
			t.Fatalf("%s: Shards=1 diverges from Shards=0:\nShards=0 %+v\nShards=1 %+v", tc.name, zero, one)
		}
		// Shards above Nodes clamps to Nodes, and one node runs one queue.
		soloZero := runCfg(t, Config{Nodes: 1, Platform: p, NewCtl: staticFactory(7), Faults: tc.faults}, jobs)
		soloClamped := runCfg(t, Config{Nodes: 1, Platform: p, NewCtl: staticFactory(7), Faults: tc.faults, Shards: 8}, jobs)
		if !reflect.DeepEqual(soloZero, soloClamped) {
			t.Fatalf("%s: Shards=8 clamped to Nodes=1 diverges from Shards=0", tc.name)
		}
	}
}

// TestShardedDeterministicAcrossRuns pins reproducibility at every shard
// count: identical configs must yield identical results AND byte-identical
// observability exports (trace JSON, metrics JSON and Prometheus text),
// despite shards dispatching concurrently.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	p := hw.TX2()
	jobs := RandomJobs(32, 200*time.Millisecond, 13)
	for _, faults := range []hw.FaultConfig{{}, crashyFaults(5)} {
		for _, shards := range []int{2, 4, 8} {
			type capture struct {
				res     Result
				trace   []byte
				metrics []byte
				prom    []byte
			}
			run := func() capture {
				o := obs.New()
				cfg := Config{
					Nodes: 8, Platform: p, NewCtl: staticFactory(7),
					Faults: faults, Obs: o,
					Shards: shards, AdmitBatch: 4, StealSeed: 3,
				}
				res := runCfg(t, cfg, jobs)
				var trace, metrics, prom bytes.Buffer
				if err := o.Tracer.WriteTrace(&trace); err != nil {
					t.Fatal(err)
				}
				if err := o.Metrics.WriteJSON(&metrics); err != nil {
					t.Fatal(err)
				}
				if err := o.Metrics.WritePrometheus(&prom); err != nil {
					t.Fatal(err)
				}
				return capture{res, trace.Bytes(), metrics.Bytes(), prom.Bytes()}
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.res, b.res) {
				t.Fatalf("shards=%d crashes=%v: results differ across identical runs:\n1st %+v\n2nd %+v",
					shards, faults.NodeCrashProb > 0, a.res, b.res)
			}
			if !bytes.Equal(a.trace, b.trace) {
				t.Fatalf("shards=%d: trace exports differ across identical runs", shards)
			}
			if !bytes.Equal(a.metrics, b.metrics) {
				t.Fatalf("shards=%d: metrics JSON exports differ across identical runs", shards)
			}
			if !bytes.Equal(a.prom, b.prom) {
				t.Fatalf("shards=%d: Prometheus exports differ across identical runs", shards)
			}
		}
	}
}

// TestShardedConservesJobsAndImages checks the accounting invariants hold at
// every shard count: nothing is lost or double-dispatched, and the per-shard
// obs counters sum to the fleet totals.
func TestShardedConservesJobsAndImages(t *testing.T) {
	p := hw.TX2()
	jobs := RandomJobs(24, 300*time.Millisecond, 17)
	wantImages := 0
	for _, j := range jobs {
		wantImages += j.Images
	}
	for _, shards := range []int{1, 2, 4, 8} {
		o := obs.New()
		cfg := Config{
			Nodes: 8, Platform: p, NewCtl: staticFactory(7), Obs: o,
			Shards: shards, AdmitBatch: 4,
		}
		res := runCfg(t, cfg, jobs)
		if res.TotalImages != wantImages {
			t.Fatalf("shards=%d: images = %d, want %d", shards, res.TotalImages, wantImages)
		}
		totalJobs := 0
		for _, nr := range res.Nodes {
			totalJobs += nr.Jobs
		}
		if totalJobs+res.DroppedJobs != len(jobs) {
			t.Fatalf("shards=%d: completed %d + dropped %d != %d jobs",
				shards, totalJobs, res.DroppedJobs, len(jobs))
		}
		if res.EE() <= 0 || res.Makespan <= 0 {
			t.Fatalf("shards=%d: bad aggregates %+v", shards, res)
		}
		if shards > 1 {
			// Per-shard completion counters must cover every completed job.
			var shardJobs, completed float64
			for _, fam := range o.Metrics.Snapshot() {
				for _, s := range fam.Series {
					switch fam.Name {
					case "cloud_shard_jobs_total":
						shardJobs += s.Value
					case "cloud_jobs_total":
						if len(s.LabelValues) == 1 && s.LabelValues[0] == "completed" {
							completed += s.Value
						}
					}
				}
			}
			if shardJobs != float64(totalJobs) || completed != float64(totalJobs) {
				t.Fatalf("shards=%d: shard counters %v / completed %v, want %d",
					shards, shardJobs, completed, totalJobs)
			}
		}
	}
}

// TestShardedFaultyAccounting pins degraded-mode bookkeeping under sharding:
// crashes are detected, failovers and lost work are attributed, and the
// job-conservation invariant still holds.
func TestShardedFaultyAccounting(t *testing.T) {
	p := hw.TX2()
	jobs := RandomJobs(28, 200*time.Millisecond, 13)
	res := runCfg(t, Config{
		Nodes: 6, Platform: p, NewCtl: staticFactory(7),
		Faults: crashyFaults(5), Shards: 3, AdmitBatch: 4,
	}, jobs)
	if res.NodesLost == 0 {
		t.Fatalf("crash schedule lost no nodes: %+v", res)
	}
	if res.Failovers == 0 {
		t.Fatalf("no failovers despite %d lost nodes", res.NodesLost)
	}
	if res.LostEnergyJ <= 0 || res.LostImages <= 0 {
		t.Fatalf("lost work not attributed: %+v", res)
	}
	totalJobs := 0
	for _, nr := range res.Nodes {
		totalJobs += nr.Jobs
	}
	if totalJobs+res.DroppedJobs != len(jobs) {
		t.Fatalf("completed %d + dropped %d != %d jobs", totalJobs, res.DroppedJobs, len(jobs))
	}
	if res.EE() <= 0 {
		t.Fatalf("bad degraded EE: %+v", res)
	}
}

// TestShardedStealSeedIsDeterministicKnob pins that StealSeed is part of the
// reproducibility contract: the same seed reproduces the run exactly.
func TestShardedStealSeedIsDeterministicKnob(t *testing.T) {
	p := hw.TX2()
	jobs := RandomJobs(32, 150*time.Millisecond, 19)
	cfg := Config{
		Nodes: 8, Platform: p, NewCtl: staticFactory(7),
		Shards: 4, AdmitBatch: 4, StealSeed: 42,
	}
	a := runCfg(t, cfg, jobs)
	b := runCfg(t, cfg, jobs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same StealSeed must reproduce the run exactly")
	}
}
