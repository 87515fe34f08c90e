package cloud

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/sim"
)

// multiPlanFactory builds an unguarded MultiPlan controller per node (the
// window-inert plan shape whose whole tasks the macro layer fast-forwards).
func multiPlanFactory() ControllerFactory {
	return func() sim.Controller {
		plans := map[string]*governor.FrequencyPlan{}
		for _, name := range models.Names() {
			plans[name] = &governor.FrequencyPlan{
				Model:  name,
				Points: map[int]int{0: 5, 4: 9},
			}
		}
		return governor.NewMultiPlan(plans)
	}
}

// TestClusterMacroMatchesMicro pins the fleet-level bit-identity contract:
// a cluster run with a shared summary cache must DeepEqual the micro-stepped
// reference (TraceOff) and export byte-identical ledgers, on both the
// single-queue and the sharded work-stealing dispatcher.
func TestClusterMacroMatchesMicro(t *testing.T) {
	p := hw.TX2()
	jobs := RandomJobs(24, 200*time.Millisecond, 13)
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single-queue", 0}, {"sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Nodes: 4, Platform: p, NewCtl: multiPlanFactory(),
				Shards: tc.shards, AdmitBatch: 4, StealSeed: 3,
			}

			micro := base
			micro.TraceOff = true
			micro.Ledger = ledger.New()
			want := runCfg(t, micro, jobs)

			macro := base
			cache := sim.NewSummaryCache()
			macro.Macro = cache
			macro.Ledger = ledger.New()
			got := runCfg(t, macro, jobs)

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("macro cluster run differs from micro:\nmicro %+v\nmacro %+v", want, got)
			}
			if !bytes.Equal(ledgerBytes(t, micro.Ledger), ledgerBytes(t, macro.Ledger)) {
				t.Fatal("macro ledger export differs from micro")
			}
			st := cache.Stats()
			if st.Hits == 0 || st.Fills == 0 {
				t.Fatalf("cluster run never used the macro cache: %+v", st)
			}
		})
	}
}

// TestClusterMacroFaultDemotion pins demotion under fault injection: node
// executors carry live injectors and must micro-step (the dry-run probes stay
// fault-free and may fast-forward), keeping the run bit-identical to the
// micro reference.
func TestClusterMacroFaultDemotion(t *testing.T) {
	p := hw.TX2()
	jobs := RandomJobs(18, 250*time.Millisecond, 17)
	base := Config{
		Nodes: 3, Platform: p, NewCtl: multiPlanFactory(),
		// Executor-level faults only: every node keeps a live injector (the
		// demotion trigger) without the crash schedule emptying the fleet.
		Faults: hw.FaultConfig{
			Seed:              5,
			SensorDropoutProb: 0.05, SensorNoiseFrac: 0.10,
			StuckProb: 0.10, DelayProb: 0.20, DelayLatency: 2 * time.Millisecond,
		},
	}

	micro := base
	micro.TraceOff = true
	want := runCfg(t, micro, jobs)

	macro := base
	cache := sim.NewSummaryCache()
	macro.Macro = cache
	got := runCfg(t, macro, jobs)

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("faulted macro run differs from micro:\nmicro %+v\nmacro %+v", want, got)
	}
	if got.Faults == (hw.FaultStats{}) {
		t.Fatal("fault schedule injected nothing; demotion untested")
	}
}

// twoGraphsOneName builds two structurally different models sharing a model
// name — the shape that used to alias in the per-model service cache.
func twoGraphsOneName() (small, big *graph.Graph) {
	small = graph.New("shared")
	in := small.Input(3, 8, 8)
	small.Linear(small.Flatten(in), 10)

	big = graph.New("shared")
	in = big.Input(3, 64, 64)
	c := big.Conv(in, 64, 3, 1, 1, 1)
	c = big.Conv(big.ReLU(c), 128, 3, 1, 1, 1)
	big.Linear(big.Flatten(big.ReLU(c)), 100)
	return small, big
}

// TestServiceCacheKeyedOnGraphDigest is the regression test for the service
// cache aliasing bug: two jobs whose graphs share a name but differ in
// structure must be timed independently. On one node their makespan is the
// sum of their true service times; keying on the name alone would bill both
// at the first graph's latency.
func TestServiceCacheKeyedOnGraphDigest(t *testing.T) {
	p := hw.TX2()
	small, big := twoGraphsOneName()
	if graph.Digest(small) == graph.Digest(big) {
		t.Fatal("test graphs digest equal")
	}

	wall := func(g *graph.Graph) time.Duration {
		e := sim.NewExecutor(p, governor.NewStatic(7))
		return e.RunTask(g, 30).Time
	}
	tSmall, tBig := wall(small), wall(big)
	if tBig <= tSmall {
		t.Fatalf("want big graph slower: small %v, big %v", tSmall, tBig)
	}

	jobs := []Job{
		{Graph: small, Images: 30, Arrival: 0},
		{Graph: big, Images: 30, Arrival: 0},
	}
	res := runCfg(t, Config{Nodes: 1, Platform: p, NewCtl: staticFactory(7)}, jobs)
	if want := tSmall + tBig; res.Makespan != want {
		t.Fatalf("single-queue makespan %v, want %v (service cache aliased same-name graphs?)", res.Makespan, want)
	}

	// Sharded: one job per shard/node; the makespan is the slower job's true
	// service time, not the first-cached one's.
	res = runCfg(t, Config{
		Nodes: 2, Platform: p, NewCtl: staticFactory(7),
		Shards: 2, AdmitBatch: 4, StealSeed: 3,
	}, jobs)
	if res.Makespan != tBig {
		t.Fatalf("sharded makespan %v, want %v (fill phase aliased same-name graphs?)", res.Makespan, tBig)
	}
}

// TestRunSharesOneGridPerModel pins the run's shared cost-grid set: a
// 500-job run builds exactly one grid per distinct (graph digest, batch) —
// the 12 evaluation models at batch 1 — on both dispatchers, while dry-run
// probes and node executors read it from concurrent goroutines.
func TestRunSharesOneGridPerModel(t *testing.T) {
	p := hw.TX2()
	jobs := RandomJobs(500, 4*time.Second, 5)
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single-queue", 0}, {"sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Nodes: 8, Platform: p, NewCtl: multiPlanFactory(),
				Shards: tc.shards, Macro: sim.NewSummaryCache(),
			}
			cfg.grids = sim.NewCostGrids(p)
			res := runCfg(t, cfg, jobs)
			if n := cfg.grids.Len(); n != len(models.Names()) {
				t.Fatalf("run built %d grids, want one per model = %d", n, len(models.Names()))
			}
			cfg.grids = nil // Run builds its own set
			if again := runCfg(t, cfg, jobs); !reflect.DeepEqual(res, again) {
				t.Fatalf("preset grid set changed the result:\npreset %+v\nown    %+v", res, again)
			}
		})
	}
}

// TestMacroCountersExact gates the summary cache's work counters exactly on a
// fault-free MultiPlan fleet with a fresh cache, on both dispatchers. Every
// pass of a macro-eligible executor counts one hit or one miss, so
// Hits+Misses is the node passes plus the dry-run probes' passes: one probe
// per distinct (graph digest, images), of ceil(images/batch) passes. Fills
// equal the committed summaries and are pinned; Aborts and Demoted are
// always 0. The sharded dispatcher's hit/miss split varies with scheduling;
// the sum and the fills do not. A Guard(MultiPlan) fleet with a cache acts at
// window ticks, so it must micro-step: DeepEqual to its TraceOff run, with the
// cache left untouched.
func TestMacroCountersExact(t *testing.T) {
	p := hw.TX2()
	jobs := RandomJobs(300, time.Second, 5)
	const wantFills = 24

	probePasses := 0
	probes := map[svcKey]bool{}
	for _, j := range jobs {
		k := svcKey{digest: graph.Digest(j.Graph), images: j.Images}
		if !probes[k] {
			probes[k] = true
			probePasses += j.Images // batch 1: one pass per image
		}
	}
	newGuarded := func() sim.Controller { return governor.NewGuard(multiPlanFactory()()) }

	for _, tc := range []struct {
		name   string
		shards int
	}{{"single-queue", 0}, {"sharded", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cache := sim.NewSummaryCache()
			res := runCfg(t, Config{
				Nodes: 8, Platform: p, NewCtl: multiPlanFactory(),
				Shards: tc.shards, Macro: cache,
			}, jobs)
			st := cache.Stats()
			if got, want := st.Hits+st.Misses, uint64(res.Passes+probePasses); got != want {
				t.Errorf("hits+misses = %d, want %d node passes + %d probe passes = %d (%+v)",
					got, res.Passes, probePasses, want, st)
			}
			if st.Fills != wantFills || cache.Len() != wantFills {
				t.Errorf("fills %d, committed summaries %d, want %d", st.Fills, cache.Len(), wantFills)
			}
			if st.Aborts != 0 || st.Demoted != 0 {
				t.Errorf("aborts %d, demoted %d, want 0", st.Aborts, st.Demoted)
			}

			guarded := Config{Nodes: 8, Platform: p, NewCtl: newGuarded, Shards: tc.shards}
			micro := guarded
			micro.TraceOff = true
			want := runCfg(t, micro, jobs)
			cache = sim.NewSummaryCache()
			guarded.Macro = cache
			if got := runCfg(t, guarded, jobs); !reflect.DeepEqual(want, got) {
				t.Fatalf("guarded fleet with a cache differs from micro:\nmicro %+v\nmacro %+v", want, got)
			}
			if n, st := cache.Len(), cache.Stats(); n != 0 || st != (sim.SummaryCacheStats{}) {
				t.Fatalf("guarded fleet touched the summary cache: %d summaries, %+v", n, st)
			}
		})
	}
}
