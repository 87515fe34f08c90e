package sim

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
)

// sweepEnergy is the oracle for the closed form: the per-event float sweep
// micro-stepping performs on the sensor energy.
func sweepEnergy(en float64, events []macroEvent) float64 {
	for i := range events {
		en += events[i].eInc
	}
	return en
}

// summaryOf returns a summary of the given energy increments with its
// closed-form table, as finishRecording builds it.
func summaryOf(incs ...float64) *FlowSummary {
	s := &FlowSummary{}
	for _, x := range incs {
		s.events = append(s.events, macroEvent{eInc: x})
	}
	s.ulpLo, s.ulps = ulpTable(s.events)
	return s
}

// checkClosedForm fails t when the closed form answers from start with other
// bits than the sweep, and reports whether it answered.
func checkClosedForm(t testing.TB, s *FlowSummary, start float64) bool {
	t.Helper()
	got, ok := s.closedForm(start)
	if !ok {
		return false
	}
	if want := sweepEnergy(start, s.events); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("from %v (%#x) over %d events: closed form %v (%#x), sweep %v (%#x)",
			start, math.Float64bits(start), len(s.events),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return true
}

// closedFormStarts returns the starts each summary is checked from. The
// edges are 0, subnormals, and every power of two and its predecessor from two
// binades below the pass total's to two above the first binade in which every
// increment is below half an ulp (derived here, not read from the table). The
// draws are log-uniform up to 2^56 × the largest increment.
func closedFormStarts(s *FlowSummary, rng *rand.Rand) (edges, draws []float64) {
	var total, maxInc float64
	for i := range s.events {
		total += s.events[i].eInc
		if x := s.events[i].eInc; x > maxInc {
			maxInc = x
		}
	}
	edges = []float64{0, math.SmallestNonzeroFloat64, 0x1.8p-1060, math.Float64frombits(1<<52 - 1)}
	lo, hi := int(math.Float64bits(total)>>52)-2, int(math.Float64bits(maxInc)>>52)+56
	if lo < 1 {
		lo = 1
	}
	if hi > 2046 {
		hi = 2046
	}
	for e := lo; e <= hi; e++ {
		pb := uint64(e) << 52
		edges = append(edges, math.Float64frombits(pb), math.Float64frombits(pb-1))
	}
	scale := maxInc
	if scale == 0 {
		scale = 1
	}
	for i := 0; i < 300; i++ {
		draws = append(draws, scale*math.Exp2(60*rng.Float64()-4))
	}
	return edges, draws
}

// recordedSummaries records passes of every evaluation network under the
// two-block test plan at batch 1 and 4 and returns the committed summaries.
func recordedSummaries(t *testing.T) []*FlowSummary {
	t.Helper()
	var out []*FlowSummary
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for _, batch := range []int{1, 4} {
			cache := NewSummaryCache()
			e := NewExecutor(hw.TX2(), &macroCtlT{lo: 2, hi: 6, splitAt: 5})
			e.SensorPeriod = 0
			e.Batch = batch
			e.Summaries = cache
			e.RunTask(g, 3*batch)
			// In key order, so that tests drawing random starts per
			// summary are reproducible.
			entries := *cache.entries.Load()
			keys := make([]summaryKey, 0, len(entries))
			for k := range entries {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].entryGPU < keys[j].entryGPU })
			for _, k := range keys {
				out = append(out, entries[k])
			}
		}
	}
	if len(out) < 2*len(models.Names()) {
		t.Fatalf("recorded %d summaries, want at least %d", len(out), 2*len(models.Names()))
	}
	return out
}

// TestClosedFormMatchesSweep pins the closed form's exactness: whenever it
// answers, its bits equal the per-event sweep's, on recorded passes of every
// evaluation network and on synthetic event lists built to hit each fallback
// (ties, an increment of a whole binade, a sum ending on a power of two,
// increments that admit no table). It also pins that the closed form does
// answer for the hot case, starts well above the pass energy.
func TestClosedFormMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	t.Run("recorded", func(t *testing.T) {
		// The edges include each binade's last float, from which any sum of
		// one ulp or more leaves the binade; coverage counts the draws.
		var high, highAnswered int
		for _, s := range recordedSummaries(t) {
			if s.ulpLo == 0 {
				t.Fatalf("recorded summary of %d non-negative increments has no table", len(s.events))
			}
			pass := sweepEnergy(0, s.events)
			edges, draws := closedFormStarts(s, rng)
			for _, start := range edges {
				checkClosedForm(t, s, start)
			}
			for _, start := range draws {
				ok := checkClosedForm(t, s, start)
				if start > 0x1p10*pass {
					high++
					if ok {
						highAnswered++
					}
				}
			}
		}
		t.Logf("closed form answered %d of %d drawn starts above 2^10 × the pass energy", highAnswered, high)
		if high == 0 || float64(highAnswered) < 0.9*float64(high) {
			t.Fatalf("closed form answered %d of %d drawn starts above 2^10 × the pass energy, want ≥ 90%%",
				highAnswered, high)
		}
	})

	t.Run("synthetic", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			incs []float64
		}{
			{"empty", nil},
			{"zeros", []float64{0, 0, 0}},
			{"few-bit", []float64{3 * 0x1p-60, 0x1p-53, 5 * 0x1p-58, 0x1p-52, 0x1.8p-50, 0x1p-53, 7 * 0x1p-56}},
			{"whole-binade", []float64{0x1p-40, 1, 0x1p-30, 0x1.4p-3}},
			{"even-steps", []float64{0x1p-3, 0x1p-3, 0x1p-4, 0x1p-4}},
			{"subnormal", []float64{math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1040}},
			{"large", []float64{0x1.23456789abcdep1000, 0x1.fp1020}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				s := summaryOf(tc.incs...)
				if s.ulpLo == 0 {
					t.Fatalf("non-negative increments %v got no table", tc.incs)
				}
				n := 0
				edges, draws := closedFormStarts(s, rng)
				for _, start := range append(edges, draws...) {
					if checkClosedForm(t, s, start) {
						n++
					}
				}
				if n == 0 {
					t.Fatalf("closed form never answered for %v", tc.incs)
				}
			})
		}
	})

	t.Run("ends-on-power-of-two", func(t *testing.T) {
		for _, tc := range []struct {
			start float64
			incs  []float64
		}{
			{1.75, []float64{0x1p-3, 0x1p-3}},
			{math.Nextafter(2, 0), []float64{0x1p-52}},
			{math.Nextafter(2, 0), []float64{0x1p-52, 0x1p-52, 0x1p-52}},
			{math.Nextafter(2, 0), []float64{0x1.8p-52}},
		} {
			s := summaryOf(tc.incs...)
			if checkClosedForm(t, s, tc.start) {
				t.Fatalf("closed form answered for a sweep from %v over %v that leaves its binade", tc.start, tc.incs)
			}
		}
	})

	t.Run("no-table", func(t *testing.T) {
		for _, incs := range [][]float64{
			{0x1p-30, -0x1p-40},
			{0x1p-30, math.NaN()},
			{math.Inf(1)},
			{0x1p-30, math.Inf(-1), 0x1p-30},
		} {
			s := summaryOf(incs...)
			if s.ulpLo != 0 || s.ulps != nil {
				t.Fatalf("increments %v built a table from exponent %d", incs, s.ulpLo)
			}
			for _, start := range []float64{0, 1, 0x1p-20, 0x1p40, math.Nextafter(1, 2)} {
				if _, ok := s.closedForm(start); ok {
					t.Fatalf("closed form answered from %v over %v without a table", start, incs)
				}
			}
		}
	})
}

// TestClosedFormDeclinesTies pins the tie case: 2^−53 is half an ulp at 1,
// so the sweep rounds to even — no change from 1, one ulp up from
// Nextafter(1, 2). No sum of ulps fits both, so the closed form must decline.
func TestClosedFormDeclinesTies(t *testing.T) {
	s := summaryOf(0x1p-53)
	for _, tc := range []struct {
		start float64
		ulps  uint64
	}{{1, 0}, {math.Nextafter(1, 2), 1}} {
		got := sweepEnergy(tc.start, s.events)
		if d := math.Float64bits(got) - math.Float64bits(tc.start); d != tc.ulps {
			t.Fatalf("sweep from %v moved %d ulps, want %d", tc.start, d, tc.ulps)
		}
		if v, ok := s.closedForm(tc.start); ok {
			t.Fatalf("closed form answered %v from %v at a rounding tie", v, tc.start)
		}
	}
}

// FuzzClosedForm checks the closed form against the sweep on arbitrary starts
// and event lists. Each pair of bytes is one increment, m·2^(64−e), so small
// mantissas make rounding ties common; its seed corpus runs with the unit
// tests.
func FuzzClosedForm(f *testing.F) {
	f.Add(1.0, []byte{1, 117})                     // 2^−53 from 1: a tie
	f.Add(math.Nextafter(1, 2), []byte{1, 117})    // the same tie from an odd start
	f.Add(1.75, []byte{32, 72, 32, 72})            // ends exactly on 2
	f.Add(math.Nextafter(2, 0), []byte{3, 117, 1}) // crosses 2 mid-sweep
	f.Add(0.0, []byte{5, 70, 9, 80})
	f.Add(math.SmallestNonzeroFloat64, []byte{200, 255, 7, 250})
	f.Add(123456.789, []byte{255, 90, 17, 100, 3, 120, 250, 64})
	f.Add(0x1p60, []byte{255, 0, 128, 10})
	f.Fuzz(func(t *testing.T, start float64, raw []byte) {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		incs := make([]float64, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			incs = append(incs, math.Ldexp(float64(raw[i]), 64-int(raw[i+1])))
		}
		s := summaryOf(incs...)
		if s.ulpLo == 0 {
			t.Fatalf("non-negative increments %v got no table", incs)
		}
		checkClosedForm(t, s, start)
		checkClosedForm(t, s, math.Abs(start))
	})
}

// TestMacroMemoCountsEveryPass pins the cache statistics under the
// per-executor memo: after each run, Hits+Misses is the number of
// fast-forward attempts, one per pass, however many of them the memo served
// and however many executors share the cache.
func TestMacroMemoCountsEveryPass(t *testing.T) {
	p := hw.TX2()
	newExec := func(cache *SummaryCache) *Executor {
		e := NewExecutor(p, &macroCtlT{lo: 2, hi: 6, splitAt: 5})
		e.SensorPeriod = 0
		e.Summaries = cache
		return e
	}
	g := models.AlexNet()
	const n = 16

	cache := NewSummaryCache()
	e := newExec(cache)
	r := e.RunTask(g, n)
	if st := cache.Stats(); st.Hits+st.Misses != uint64(r.Passes) || st.Fills == 0 {
		t.Fatalf("cold run of %d passes: %+v", r.Passes, st)
	}
	before := cache.Stats()
	e.RunTask(g, n)
	after := cache.Stats()
	if after.Hits-before.Hits != n || after.Misses != before.Misses || after.Fills != before.Fills {
		t.Fatalf("warm run of %d passes: stats %+v -> %+v", n, before, after)
	}

	// A swapped cache must not be served from the memo of the last one.
	fresh := NewSummaryCache()
	e.Summaries = fresh
	r = e.RunTask(g, n)
	if st := fresh.Stats(); st.Hits+st.Misses != uint64(r.Passes) || st.Fills == 0 {
		t.Fatalf("run on a swapped-in cache: %+v over %d passes", st, r.Passes)
	}

	// Four executors sharing one cache, two models each.
	shared := NewSummaryCache()
	graphs := []*graph.Graph{g, models.MustBuild("mobilenet_v3")}
	passes := make([]int, 4)
	var wg sync.WaitGroup
	for w := range passes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := newExec(shared)
			for _, g := range graphs {
				passes[w] += e.RunTask(g, n).Passes
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range passes {
		total += n
	}
	if st := shared.Stats(); st.Hits+st.Misses != uint64(total) {
		t.Fatalf("4 executors ran %d passes, stats count %d: %+v", total, st.Hits+st.Misses, st)
	}
}
