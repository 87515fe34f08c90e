package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
)

// foldPassCounts are the pass counts every fold is checked at.
var foldPassCounts = []int{1, 2, 3, 63, 1000, 1_000_000}

// maxSweptAdds bounds the event adds the fold's oracle sweeps literally for
// one start. Longer chains replay each pass through closedForm, which
// TestClosedFormMatchesSweep and FuzzClosedForm pin to the sweep's bits, so
// the oracle still equals n sweeps.
const maxSweptAdds = 1 << 21

// passesOracle returns the energy n successive passes of s reach from en,
// each one swept event by event (or replayed as described at maxSweptAdds).
// A pass is a function of the energy it starts from, so once one leaves the
// energy unchanged every later pass does too.
func passesOracle(s *FlowSummary, en float64, n int) float64 {
	literal := n*len(s.events) <= maxSweptAdds
	for i := 0; i < n; i++ {
		v, ok := s.closedForm(en)
		if !ok || literal {
			v = sweepEnergy(en, s.events)
		}
		if math.Float64bits(v) == math.Float64bits(en) {
			break
		}
		en = v
	}
	return en
}

// checkFold fails t when folding n passes from start lands on other bits
// than the oracle, and returns how many of the passes the fold swept.
func checkFold(t testing.TB, s *FlowSummary, start float64, n int) int {
	t.Helper()
	got, swept := s.foldEnergy(start, n)
	if swept < 0 || swept > n {
		t.Fatalf("fold of %d passes from %v reports %d swept", n, start, swept)
	}
	if want := passesOracle(s, start, n); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fold of %d passes (%d events each) from %v (%#x): got %v (%#x), want %v (%#x)",
			n, len(s.events), start, math.Float64bits(start),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return swept
}

// boundaryStart is a start from which j closed-form passes end exactly on
// the next power of two.
type boundaryStart struct {
	start float64
	j     int
}

// boundaryStarts returns, for up to binades binades of s's table, the
// starts 2^(K+1) − j·M_K ulps for j = n−1, n and n+1 that lie in binade K.
// The lowest and highest answerable binades come first; the rest are drawn.
func boundaryStarts(s *FlowSummary, n, binades int, rng *rand.Rand) []boundaryStart {
	var exps []uint64
	for i, m := range s.ulps {
		if m != noUlps && m != 0 {
			exps = append(exps, s.ulpLo+uint64(i))
		}
	}
	if len(exps) > binades {
		pick := []uint64{exps[0], exps[len(exps)-1]}
		for _, i := range rng.Perm(len(exps) - 2)[:binades-2] {
			pick = append(pick, exps[i+1])
		}
		exps = pick
	}
	var out []boundaryStart
	for _, exp := range exps {
		m := s.ulps[exp-s.ulpLo]
		for _, j := range []int{n - 1, n, n + 1} {
			if j < 1 || uint64(j) > (1<<52)/m {
				continue
			}
			out = append(out, boundaryStart{math.Float64frombits((exp+1)<<52 - uint64(j)*m), j})
		}
	}
	return out
}

// foldSummaries returns the summaries the fold is checked on: recorded
// passes of every evaluation network at batch 1 and 4, and synthetic event
// lists for each fallback (ties, an increment of a whole binade, zeros, a
// pass that reaches a power of two and then adds an increment in (u/2, u)).
func foldSummaries(t *testing.T) (recorded, synthetic []*FlowSummary) {
	for _, incs := range [][]float64{
		{0x1p-53},                     // a tie at 1
		{0x1p-53, 0x1p-40, 0x1.8p-52}, // ties and plain steps
		{0x1p-40, 1, 0x1p-30, 0x1.4p-3},
		{0, 0, 0},
		{0x1p-3, 0x1p-3, 0.75 * 0x1p-52}, // from 1.75: lands on 2, then u·3/4
		{3 * 0x1p-60, 0x1p-53, 5 * 0x1p-58, 0x1p-52, 0x1.8p-50, 0x1p-53, 7 * 0x1p-56},
		{0x1p-3, 0x1p-3, 0x1p-4, 0x1p-4},
		{math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1040},
		{0x1.23456789abcdep1000, 0x1.fp1020},
	} {
		s := summaryOf(incs...)
		if s.ulpLo == 0 {
			t.Fatalf("non-negative increments %v got no table", incs)
		}
		synthetic = append(synthetic, s)
	}
	return recordedSummaries(t), synthetic
}

// TestFoldEnergyMatchesSweeps pins the whole-task fold's energy: folding n
// passes equals n sequential sweeps bit for bit, from zero, subnormal,
// boundary and log-uniform starts, for every n in foldPassCounts. It also
// pins that the fold is not vacuous — it takes closed-form steps for at least
// 90% of the drawn starts above 2^10 × the pass energy — and that no step
// reaches the next power of two: from 2^(K+1) − n·M_K ulps the last of n
// passes is swept.
func TestFoldEnergyMatchesSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	subnormals := []float64{0, math.SmallestNonzeroFloat64, 0x1.8p-1060, math.Float64frombits(1<<52 - 1)}
	var high, folded int
	recorded, synthetic := foldSummaries(t)
	for si, s := range append(recorded, synthetic...) {
		pass := sweepEnergy(0, s.events)
		scale := pass
		for i := range s.events {
			scale = math.Max(scale, s.events[i].eInc)
		}
		if scale == 0 {
			scale = 1
		}
		for _, n := range foldPassCounts {
			// Where the oracle replays n passes one by one, fewer starts,
			// and on every fourth recorded summary only.
			subs, binades, draws := subnormals, 6, 12
			if n*len(s.events) > maxSweptAdds {
				if si < len(recorded) && si%4 != 0 {
					continue
				}
				subs, binades, draws = subnormals[:2], 2, 2
			}
			for _, start := range subs {
				checkFold(t, s, start, n)
			}
			for _, b := range boundaryStarts(s, n, binades, rng) {
				if swept := checkFold(t, s, b.start, n); b.j == n && swept == 0 {
					t.Fatalf("fold of %d passes from %v reached 2^(K+1) in closed-form steps", n, b.start)
				}
			}
			for i := 0; i < draws; i++ {
				start := scale * math.Exp2(60*rng.Float64()-4)
				swept := checkFold(t, s, start, n)
				if start > 0x1p10*pass {
					high++
					if swept < n {
						folded++
					}
				}
			}
		}
	}
	t.Logf("fold took closed-form steps from %d of %d drawn starts above 2^10 × the pass energy", folded, high)
	if high == 0 || float64(folded) < 0.9*float64(high) {
		t.Fatalf("fold took closed-form steps from %d of %d drawn starts above 2^10 × the pass energy, want ≥ 90%%",
			folded, high)
	}
}

// FuzzFold checks the fold against sequential sweeps on arbitrary starts,
// event lists (encoded as in FuzzClosedForm) and pass counts; its seed
// corpus runs with the unit tests.
func FuzzFold(f *testing.F) {
	f.Add(1.0, []byte{1, 117}, uint16(5))                     // 2^−53 from 1: a tie
	f.Add(1.75, []byte{32, 72, 32, 72, 3, 118}, uint16(1))    // ends on 2, then u·3/4
	f.Add(math.Nextafter(2, 0), []byte{3, 117, 1}, uint16(9)) // crosses 2 in the first pass
	f.Add(0.0, []byte{5, 70, 9, 80}, uint16(1000))
	f.Add(math.SmallestNonzeroFloat64, []byte{200, 255, 7, 250}, uint16(63))
	f.Add(123456.789, []byte{255, 90, 17, 100, 3, 120, 250, 64}, uint16(4000))
	f.Add(0x1p60, []byte{255, 0, 128, 10}, uint16(2))
	f.Add(1.5, []byte{0, 0, 0, 10}, uint16(300)) // zero increments
	f.Fuzz(func(t *testing.T, start float64, raw []byte, n uint16) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		incs := make([]float64, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			incs = append(incs, math.Ldexp(float64(raw[i]), 64-int(raw[i+1])))
		}
		s := summaryOf(incs...)
		passes := int(n%4096) + 1
		checkFold(t, s, start, passes)
		checkFold(t, s, math.Abs(start), passes)
	})
}

// entryCtl is macroCtlT entered from its own level: Reset leaves the GPU at
// entry, a level neither of the plan's two blocks uses, so a task's first
// pass starts from another level than every later one.
type entryCtl struct {
	*macroCtlT
	entry int
}

func (c *entryCtl) Reset(p *hw.Platform) { c.macroCtlT.Reset(p); c.level = c.entry }

// TestFoldMatchesMicro pins the fold against the micro-stepped oracle:
// RunTask and RunTaskFlowArrivals on every evaluation network at batch 1 and
// 4, cold and warm, are DeepEqual to micro-stepping, and every run counts one
// cache hit or miss per pass (a warm run only hits). The plan's two blocks
// run well below the top level, so every pass violates the QoS budget and
// the folded violation count is checked too. The warm RunTask of 5000
// images folds passes 3..N, and the test asserts that those passes cross a
// binade.
func TestFoldMatchesMicro(t *testing.T) {
	p := hw.TX2()
	images := []int{1, 2, 3, 50, 5000}
	crossed := false
	checkCounts := func(t *testing.T, what string, before, after SummaryCacheStats, r Result, warm bool) {
		t.Helper()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if hits+misses != uint64(r.Passes) {
			t.Fatalf("%s: %d hits + %d misses over %d passes", what, hits, misses, r.Passes)
		}
		if warm && (misses != 0 || after.Fills != before.Fills) {
			t.Fatalf("warm %s: %d misses, fills %d -> %d", what, misses, before.Fills, after.Fills)
		}
	}
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for _, batch := range []int{1, 4} {
			micro, macro, cache := newMacroPair(p, false)
			micro.Batch, macro.Batch = batch, batch
			for _, n := range images {
				want := micro.RunTask(g, n)
				if want.QoSViolations == 0 {
					t.Fatalf("%s batch %d: no pass violates the QoS budget, so the fold's violation count goes unchecked", name, batch)
				}
				for _, warm := range []bool{false, true} {
					before := cache.Stats()
					got := macro.RunTask(g, n)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s batch %d, %d images (warm %v):\nmicro %+v\nmacro %+v", name, batch, n, warm, want, got)
					}
					checkCounts(t, name, before, cache.Stats(), got, warm)
				}
				if n == 5000 {
					// A warm run replays pass 2 from the summary keyed at
					// the plan's exit level and folds passes 3..N from the
					// energy of two passes.
					two := micro.RunTask(g, 2*batch).EnergyJ
					if math.Float64bits(two)>>52 < math.Float64bits(want.EnergyJ)>>52 {
						crossed = true
					}
				}
			}

			var tasks []Task
			for _, n := range images {
				tasks = append(tasks, Task{Graph: g, Images: n}, Task{Graph: models.AlexNet(), Images: n})
			}
			gaps := PoissonArrivals(len(tasks), 30*time.Millisecond, int64(batch))
			want := micro.RunTaskFlowArrivals(tasks, gaps)
			before := cache.Stats()
			got := macro.RunTaskFlowArrivals(tasks, gaps)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s batch %d flow:\nmicro %+v\nmacro %+v", name, batch, want, got)
			}
			checkCounts(t, name+" flow", before, cache.Stats(), got, false)
		}
	}
	if !crossed {
		t.Fatal("no folded task crossed a binade of its sensor energy")
	}
}

// TestFoldDeclinesOffFixedPoint pins the fixed-point condition: a plan whose
// first and last levels differ, entered from a third level, leaves pass 1 at
// another level than it started from, so pass 1 must not fold; pass 2 starts
// from the plan's exit level and folds the rest. Warm runs replay pass 1,
// so a fold there would apply pass 1's summary to every later pass.
func TestFoldDeclinesOffFixedPoint(t *testing.T) {
	p := hw.TX2()
	newCtl := func() *entryCtl {
		return &entryCtl{macroCtlT: &macroCtlT{lo: 2, hi: 6, splitAt: 5}, entry: 4}
	}
	for _, g := range []*graph.Graph{models.AlexNet(), models.MustBuild("mobilenet_v3")} {
		micro := NewExecutor(p, newCtl())
		micro.SensorPeriod = 0
		macro := NewExecutor(p, newCtl())
		macro.SensorPeriod = 0
		cache := NewSummaryCache()
		macro.Summaries = cache
		for _, n := range []int{2, 3, 50} {
			want := micro.RunTask(g, n)
			for run := 0; run < 2; run++ {
				if got := macro.RunTask(g, n); !reflect.DeepEqual(want, got) {
					t.Fatalf("%s, %d images, run %d:\nmicro %+v\nmacro %+v", g.Name, n, run, want, got)
				}
			}
		}
		if n := cache.Len(); n != 2 {
			t.Fatalf("%s: %d summaries, want 2 (entered from the third level and from the exit level)", g.Name, n)
		}
	}
}
