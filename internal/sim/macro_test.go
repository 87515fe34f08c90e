package sim

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/ledger"
)

// macroCtlT is a minimal MacroSteppable plan controller for macro tests: layers
// with ID >= splitAt run at hi, earlier layers at lo (two power blocks). Its
// per-layer level sequence is a pure function of the graph and (lo, hi,
// splitAt), which is exactly the MacroSteppable contract.
type macroCtlT struct {
	p       *hw.Platform
	lo, hi  int
	splitAt int
	level   int
}

func (c *macroCtlT) Name() string         { return "plan-test" }
func (c *macroCtlT) Reset(p *hw.Platform) { c.p = p; c.level = c.lo }
func (c *macroCtlT) GPULevel() int        { return c.level }
func (c *macroCtlT) CPULevel() int        { return 0 }
func (c *macroCtlT) OnWindow(WindowStats) {}
func (c *macroCtlT) BeforeLayer(_ *graph.Graph, layerID int) {
	if layerID >= c.splitAt {
		c.level = c.hi
	} else {
		c.level = c.lo
	}
}

func (c *macroCtlT) MacroPlanDigest(*graph.Graph) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range []int{c.lo, c.hi, c.splitAt} {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}
func (c *macroCtlT) MacroAdvancePass(_ *graph.Graph, exitGPULevel int) {
	c.level = exitGPULevel
}

func (c *macroCtlT) BlockIndex(_ *graph.Graph, layerID int) int {
	if layerID >= c.splitAt {
		return 1
	}
	return 0
}

var _ MacroSteppable = (*macroCtlT)(nil)
var _ BlockResolver = (*macroCtlT)(nil)

// windowedCtlT hides a plan controller's MacroSteppable methods: it steps the
// same plan but, like a controller that acts at window ticks (governor.Guard),
// it is never macro-stepped and keeps full window segmentation.
type windowedCtlT struct{ Controller }

// newMacroPair returns micro and macro executors in the same configuration
// (trace off; the macro one carries a fresh summary cache). windowed wraps
// both controllers in windowedCtlT.
func newMacroPair(p *hw.Platform, windowed bool) (micro, macro *Executor, cache *SummaryCache) {
	newCtl := func() Controller {
		if windowed {
			return windowedCtlT{&macroCtlT{lo: 2, hi: 6, splitAt: 5}}
		}
		return &macroCtlT{lo: 2, hi: 6, splitAt: 5}
	}
	micro = NewExecutor(p, newCtl())
	micro.SensorPeriod = 0
	macro = NewExecutor(p, newCtl())
	macro.SensorPeriod = 0
	cache = NewSummaryCache()
	macro.Summaries = cache
	return micro, macro, cache
}

// cacheUntouched fails t unless cache has no summary and zero stats: the
// state a run that never macro-stepped leaves it in.
func cacheUntouched(t *testing.T, cache *SummaryCache) {
	t.Helper()
	if n, st := cache.Len(), cache.Stats(); n != 0 || st != (SummaryCacheStats{}) {
		t.Fatalf("a run that must micro-step touched the cache: %d summaries, %+v", n, st)
	}
}

// TestMacroRunTaskMatchesMicro pins the core contract: a macro-stepped task is
// DeepEqual to the micro-stepped oracle — including the cold run that records
// the summaries — and repeat runs actually hit the cache.
func TestMacroRunTaskMatchesMicro(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	micro, macro, cache := newMacroPair(p, false)

	want := micro.RunTask(g, 8)
	cold := macro.RunTask(g, 8)
	if !reflect.DeepEqual(want, cold) {
		t.Fatalf("cold macro run differs from micro:\nmicro %+v\nmacro %+v", want, cold)
	}
	st := cache.Stats()
	if st.Fills == 0 {
		t.Fatalf("cold run recorded no summaries: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("cold run never fast-forwarded (8 passes, %d fills): %+v", st.Fills, st)
	}

	warm := macro.RunTask(g, 8)
	if !sameResult(want, warm) {
		t.Fatalf("warm macro run differs from micro:\nmicro %+v\nmacro %+v", want, warm)
	}
	if st2 := cache.Stats(); st2.Fills != st.Fills {
		t.Fatalf("warm run re-recorded summaries: %+v -> %+v", st, st2)
	}
}

// TestMacroBatchedPassesMatchMicro covers the batched pass shape (batch > 1,
// images rounded up to a batch multiple).
func TestMacroBatchedPassesMatchMicro(t *testing.T) {
	p := hw.TX2()
	g := models.MustBuild("mobilenet_v3")
	micro, macro, _ := newMacroPair(p, false)
	micro.Batch, macro.Batch = 4, 4

	want := micro.RunTask(g, 10)
	got := macro.RunTask(g, 10)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("batched macro differs:\nmicro %+v\nmacro %+v", want, got)
	}
	if want.Images != 12 {
		t.Fatalf("batch rounding changed: %d images, want 12", want.Images)
	}
}

// TestMacroFlowArrivalsMatchesMicro pins equality across a multi-model task
// flow with idle gaps. The inert variant fast-forwards (asserted via cache
// hits). The windowed variant steps the same plan through a controller that
// is not MacroSteppable, with a period long enough that most passes fit
// inside a window: it must micro-step and leave the cache untouched.
func TestMacroFlowArrivalsMatchesMicro(t *testing.T) {
	p := hw.TX2()
	tasks := []Task{
		{Graph: models.AlexNet(), Images: 5},
		{Graph: models.MustBuild("mobilenet_v3"), Images: 4},
		{Graph: models.AlexNet(), Images: 3},
	}
	gaps := []time.Duration{20 * time.Millisecond, 70 * time.Millisecond}

	for _, tc := range []struct {
		name     string
		windowed bool
	}{{"inert", false}, {"windowed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			micro, macro, cache := newMacroPair(p, tc.windowed)
			if tc.windowed {
				micro.WindowPeriod = 400 * time.Millisecond
				macro.WindowPeriod = 400 * time.Millisecond
			}
			want := micro.RunTaskFlowArrivals(tasks, gaps)
			got := macro.RunTaskFlowArrivals(tasks, gaps)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("flow differs:\nmicro %+v\nmacro %+v", want, got)
			}
			if tc.windowed {
				cacheUntouched(t, cache)
				return
			}
			if st := cache.Stats(); st.Hits == 0 {
				t.Fatalf("flow never fast-forwarded: %+v", st)
			}
		})
	}
}

// TestMacroAttributionByteIdentical runs micro and macro with a ledger and
// per-level tracking attached and requires byte-identical ledger exports and
// DeepEqual results (LevelEnergyJ/LevelTime float chains included).
func TestMacroAttributionByteIdentical(t *testing.T) {
	p := hw.TX2()
	tasks := []Task{
		{Graph: models.AlexNet(), Images: 6},
		{Graph: models.MustBuild("mobilenet_v3"), Images: 4},
	}
	gaps := []time.Duration{30 * time.Millisecond}

	micro, macro, cache := newMacroPair(p, false)
	micro.TrackLevels, macro.TrackLevels = true, true
	lMicro, lMacro := ledger.New(), ledger.New()
	micro.Ledger, macro.Ledger = lMicro, lMacro

	want := micro.RunTaskFlowArrivals(tasks, gaps)
	got := macro.RunTaskFlowArrivals(tasks, gaps)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("attributed flow differs:\nmicro %+v\nmacro %+v", want, got)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("attributed flow never fast-forwarded: %+v", st)
	}

	var a, b bytes.Buffer
	if err := lMicro.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := lMacro.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("ledger exports differ:\nmicro %s\nmacro %s", a.String(), b.String())
	}
}

// TestMacroWarmReplayZeroAlloc pins the serving property the cache exists
// for: with summaries warm, whole-task fast-forward performs no heap
// allocation.
func TestMacroWarmReplayZeroAlloc(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	e := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
	e.SensorPeriod = 0
	e.Summaries = NewSummaryCache()
	e.RunTask(g, 4) // warm: summaries, sensor, cost grid

	allocs := testing.AllocsPerRun(10, func() { e.RunTask(g, 4) })
	if allocs != 0 {
		t.Fatalf("warm macro RunTask allocated %.0f times per run, want 0", allocs)
	}
}

// TestMacroDemotions pins the demotion set: attachments that observe or
// perturb individual steps must keep the cache untouched while results stay
// equal to the micro oracle.
func TestMacroDemotions(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	faults := hw.FaultConfig{Seed: 7, SensorNoiseFrac: 0.2, StuckProb: 0.3}

	for _, tc := range []struct {
		name string
		set  func(e *Executor)
	}{
		{"sensor-trace", func(e *Executor) { e.SensorPeriod = 10 * time.Millisecond }},
		{"faults", func(e *Executor) { e.Faults = hw.NewInjector(faults) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			micro := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
			micro.SensorPeriod = 0
			tc.set(micro)
			macro := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
			macro.SensorPeriod = 0
			tc.set(macro)
			cache := NewSummaryCache()
			macro.Summaries = cache

			want := micro.RunTask(g, 4)
			got := macro.RunTask(g, 4)
			if !sameResult(want, got) {
				t.Fatalf("demoted run differs:\nmicro %+v\nmacro %+v", want, got)
			}
			if n := cache.Len(); n != 0 {
				t.Fatalf("demoted run cached %d summaries, want 0", n)
			}
			if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 {
				t.Fatalf("demoted run consulted the cache: %+v", st)
			}
		})
	}
}

// TestMacroSingleFlightFill hammers one cache from many executors under the
// race detector: fills must be single-flight (one per key) and every result
// must equal the micro oracle.
func TestMacroSingleFlightFill(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	ref := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
	ref.SensorPeriod = 0
	want := ref.RunTask(g, 6)

	cache := NewSummaryCache()
	const workers = 8
	results := make([]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
			e.SensorPeriod = 0
			e.Summaries = cache
			results[w] = e.RunTask(g, 6)
		}(w)
	}
	wg.Wait()
	for w := range results {
		if !reflect.DeepEqual(want, results[w]) {
			t.Fatalf("worker %d differs from micro:\nmicro %+v\nmacro %+v", w, want, results[w])
		}
	}
	st := cache.Stats()
	if int(st.Fills) != cache.Len() {
		t.Fatalf("fills (%d) != committed summaries (%d): double fill slipped through", st.Fills, cache.Len())
	}
}

// TestMacroTaskEndsOnWindowBoundary pins a window-acting controller whose
// passes end exactly on window boundaries: with a cache attached it must
// micro-step every pass, so each tick fires at its exact instant, and leave
// the cache untouched. The schedule is constant-level so every pass has
// identical wall time; the window period is set to exactly two passes.
func TestMacroTaskEndsOnWindowBoundary(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	newCtl := func() Controller { return windowedCtlT{&macroCtlT{lo: 4, hi: 4, splitAt: 0}} }

	probe := NewExecutor(p, newCtl())
	probe.SensorPeriod = 0
	wall := probe.RunTask(g, 1).Time
	if wall <= 0 {
		t.Fatal("probe pass has zero wall time")
	}

	micro := NewExecutor(p, newCtl())
	micro.SensorPeriod = 0
	micro.WindowPeriod = 2 * wall
	macro := NewExecutor(p, newCtl())
	macro.SensorPeriod = 0
	macro.WindowPeriod = 2 * wall
	cache := NewSummaryCache()
	macro.Summaries = cache

	want := micro.RunTask(g, 6)
	got := macro.RunTask(g, 6)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("boundary-aligned task differs:\nmicro %+v\nmacro %+v", want, got)
	}
	cacheUntouched(t, cache)
}

// TestMacroIdleSpansMultipleWindows pins idle-gap handling: a gap crossing
// several window boundaries must tick identically under macro-stepping (idle
// itself never fast-forwards; the surrounding passes do in the inert
// variant, and the windowed variant micro-steps without touching the cache).
func TestMacroIdleSpansMultipleWindows(t *testing.T) {
	p := hw.TX2()
	tasks := []Task{
		{Graph: models.AlexNet(), Images: 3},
		{Graph: models.AlexNet(), Images: 3},
	}
	for _, tc := range []struct {
		name     string
		windowed bool
	}{{"inert", false}, {"windowed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			micro, macro, cache := newMacroPair(p, tc.windowed)
			micro.WindowPeriod = 40 * time.Millisecond
			macro.WindowPeriod = 40 * time.Millisecond
			gaps := []time.Duration{100 * time.Millisecond} // 2.5 windows
			want := micro.RunTaskFlowArrivals(tasks, gaps)
			got := macro.RunTaskFlowArrivals(tasks, gaps)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("idle-spanning flow differs:\nmicro %+v\nmacro %+v", want, got)
			}
			if tc.windowed {
				cacheUntouched(t, cache)
			}
		})
	}
}
