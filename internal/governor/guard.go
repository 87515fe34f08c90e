package governor

import (
	"fmt"
	"math"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/obs/audit"
	"powerlens/internal/sim"
)

// Guard wraps any sim.Controller with a runtime sanity layer. It validates
// the wrapped policy's decisions every time the executor consults them —
// out-of-range ladder levels, NaN/Inf window features fed to the policy, and
// sustained level oscillation (ping-pong) all count as strikes — and after
// MaxStrikes consecutive invalid outputs it fails over to a known-good
// fallback governor (Ondemand by default, the platform's standard governor).
// While in fallback it keeps probing the wrapped policy and restores it once
// it behaves again, so transient misbehaviour (a corrupted plan, a policy
// confused by faulty sensor windows) degrades a run instead of ruining it.
// Guard acts at window ticks, so it is not a sim.MacroSteppable: a guarded
// executor always micro-steps.
type Guard struct {
	Inner    sim.Controller
	Fallback sim.Controller // defaults to NewOndemand()

	// MaxStrikes is the number of consecutive invalid decisions before
	// failing over (default 3).
	MaxStrikes int
	// RecoveryWindows is how many windows the guard stays on the fallback
	// before probing the wrapped policy again (default 8).
	RecoveryWindows int
	// OscillationLen is how many consecutive window decisions must strictly
	// alternate between two levels to count as ping-pong (default 6).
	OscillationLen int
	// OscillationSpan is the minimum ladder distance between the two
	// alternating levels for the pattern to count (default 3 — small
	// dithering is normal reactive behaviour, wide ping-pong is not).
	OscillationSpan int

	// Stats counts guard interventions; read it after a run.
	Stats GuardStats

	// Obs, when non-nil, emits the guard lifecycle onto the span trace
	// (cat "guard": decision → violation → fallback → recovery instants,
	// timestamped by the executor-installed simulated clock) and counts
	// decisions, strikes, failovers and recoveries in the metrics registry.
	Obs *obs.Observer

	platform  *hw.Platform
	strikes   int
	fallback  bool
	recoverIn int
	lastGood  int
	lastWin   sim.WindowStats
	haveWin   bool
	history   []int

	// Observability handles (inert unless Obs is set at Reset time).
	mDecisions  obs.Counter
	mStrikes    obs.Counter
	mFallbacks  obs.Counter
	mRecoveries obs.Counter
	innerName   string

	// Decision-audit sink (installed by the executor via SetAudit; nil keeps
	// every emission site a single nil-safe method call).
	audit      *audit.Recorder
	auditTrack int
}

// GuardStats counts the guard's observations and interventions.
type GuardStats struct {
	InvalidLevels       int // out-of-range GPU levels returned by the policy
	NaNWindows          int // window observations sanitized before delivery
	Oscillations        int // ping-pong patterns detected
	FallbackActivations int // times the guard failed over
	FallbackWindows     int // windows spent on the fallback governor
	Recoveries          int // times the wrapped policy was restored
}

// Add accumulates another stats block.
func (s *GuardStats) Add(o GuardStats) {
	s.InvalidLevels += o.InvalidLevels
	s.NaNWindows += o.NaNWindows
	s.Oscillations += o.Oscillations
	s.FallbackActivations += o.FallbackActivations
	s.FallbackWindows += o.FallbackWindows
	s.Recoveries += o.Recoveries
}

// NewGuard wraps a controller with the default fallback (Ondemand) and
// default thresholds.
func NewGuard(inner sim.Controller) *Guard {
	return &Guard{Inner: inner, Fallback: NewOndemand()}
}

// Name implements sim.Controller.
func (g *Guard) Name() string { return fmt.Sprintf("guard(%s)", g.Inner.Name()) }

// Reset implements sim.Controller.
func (g *Guard) Reset(p *hw.Platform) {
	if g.Fallback == nil {
		g.Fallback = NewOndemand()
	}
	g.platform = p
	g.Inner.Reset(p)
	g.Fallback.Reset(p)
	g.Stats = GuardStats{}
	g.strikes, g.recoverIn = 0, 0
	g.fallback = false
	g.lastGood = p.NumGPULevels() / 2
	g.lastWin, g.haveWin = sim.WindowStats{}, false
	g.history = g.history[:0]
	if g.Obs != nil {
		m := g.Obs.Metrics
		g.innerName = g.Inner.Name()
		g.mDecisions = m.Counter("governor_decisions_total",
			"Window decisions served, by wrapped controller and source.", "controller", "source")
		g.mStrikes = m.Counter("governor_guard_strikes_total",
			"Invalid decisions observed by the guard, by reason.", "controller", "reason")
		g.mFallbacks = m.Counter("governor_guard_fallbacks_total",
			"Guard failovers to the fallback governor.", "controller")
		g.mRecoveries = m.Counter("governor_guard_recoveries_total",
			"Wrapped policies restored after a fallback episode.", "controller")
	}
}

// OnFallback reports whether the guard is currently serving decisions from
// the fallback governor.
func (g *Guard) OnFallback() bool { return g.fallback }

// SetAudit implements sim.AuditSink: guard interventions (strikes, failovers,
// recoveries) land in the decision-audit trail. The recorder is forwarded to
// the wrapped policy and the fallback so plan applications stay audited
// through a fallback episode; a nil recorder disables emission everywhere.
func (g *Guard) SetAudit(rec *audit.Recorder, track int) {
	g.audit = rec
	g.auditTrack = track
	if s, ok := g.Inner.(sim.AuditSink); ok {
		s.SetAudit(rec, track)
	}
	if s, ok := g.Fallback.(sim.AuditSink); ok {
		s.SetAudit(rec, track)
	}
}

func (g *Guard) maxStrikes() int {
	if g.MaxStrikes > 0 {
		return g.MaxStrikes
	}
	return 3
}

func (g *Guard) recoveryWindows() int {
	if g.RecoveryWindows > 0 {
		return g.RecoveryWindows
	}
	return 8
}

func (g *Guard) oscLen() int {
	if g.OscillationLen > 1 {
		return g.OscillationLen
	}
	return 6
}

func (g *Guard) oscSpan() int {
	if g.OscillationSpan > 0 {
		return g.OscillationSpan
	}
	return 3
}

// GPULevel implements sim.Controller: the wrapped policy's level when it is
// trusted and in range, the fallback's otherwise.
func (g *Guard) GPULevel() int {
	if g.fallback {
		return g.Fallback.GPULevel()
	}
	lvl, ok := g.innerLevel()
	if !ok {
		return g.lastGood
	}
	return lvl
}

// innerLevel validates the wrapped policy's current GPU decision, striking
// on out-of-range levels.
func (g *Guard) innerLevel() (int, bool) {
	lvl := g.Inner.GPULevel()
	if lvl < 0 || lvl >= g.platform.NumGPULevels() {
		g.Stats.InvalidLevels++
		g.strike("invalid-level")
		return g.lastGood, false
	}
	g.lastGood = lvl
	return lvl, true
}

// CPULevel implements sim.Controller. CPU levels are clamped by the
// executor, so the guard only needs to pick the trusted source.
func (g *Guard) CPULevel() int {
	if g.fallback {
		return g.Fallback.CPULevel()
	}
	return g.Inner.CPULevel()
}

// BeforeLayer implements sim.Controller. The wrapped policy always sees its
// instrumentation points so its plan position stays warm across a fallback
// episode.
func (g *Guard) BeforeLayer(gr *graph.Graph, layerID int) {
	g.Inner.BeforeLayer(gr, layerID)
	g.Fallback.BeforeLayer(gr, layerID)
}

// BlockIndex implements sim.BlockResolver by delegating to the wrapped policy
// when it carries a block structure: attribution follows the plan even while
// the guard is serving levels from the fallback.
func (g *Guard) BlockIndex(gr *graph.Graph, layerID int) int {
	if br, ok := g.Inner.(sim.BlockResolver); ok {
		return br.BlockIndex(gr, layerID)
	}
	return 0
}

// OnWindow implements sim.Controller: sanitize the observation, feed both
// policies (the fallback stays warm for takeover), then judge the wrapped
// policy's decision.
func (g *Guard) OnWindow(s sim.WindowStats) {
	s = g.sanitize(s)
	g.Inner.OnWindow(s)
	g.Fallback.OnWindow(s)

	if g.Obs != nil {
		source := "inner"
		if g.fallback {
			source = "fallback"
		}
		g.mDecisions.Inc(g.innerName, source)
		g.Obs.MarkNow("guard", "decision",
			obs.Int("level", g.Inner.GPULevel()), obs.Str("source", source))
	}

	lvl, ok := g.innerLevel()
	if ok {
		g.pushHistory(lvl)
		if g.oscillating() {
			g.Stats.Oscillations++
			g.strike("oscillation")
			ok = false
		}
	}
	if ok && !g.fallback {
		g.strikes = 0
	}

	if g.fallback {
		g.Stats.FallbackWindows++
		g.recoverIn--
		if g.recoverIn <= 0 {
			if ok {
				// The wrapped policy behaves again: restore it.
				g.fallback = false
				g.strikes = 0
				g.Stats.Recoveries++
				if g.Obs != nil {
					g.mRecoveries.Inc(g.innerName)
					g.Obs.MarkNow("guard", "recovery", obs.Int("level", lvl))
				}
				g.audit.RecordGuard(g.auditTrack, "recovery", g.Inner.Name(), lvl, "")
			} else {
				g.recoverIn = g.recoveryWindows()
			}
		}
	}
}

// sanitize replaces NaN/Inf window features with the last clean observation
// (or zeros) so the wrapped policy never ingests garbage.
func (g *Guard) sanitize(s sim.WindowStats) sim.WindowStats {
	if finiteStats(s) {
		g.lastWin, g.haveWin = s, true
		return s
	}
	g.Stats.NaNWindows++
	if g.haveWin {
		return g.lastWin
	}
	return sim.WindowStats{Period: s.Period, GPULevel: s.GPULevel, CPULevel: s.CPULevel}
}

func finiteStats(s sim.WindowStats) bool {
	for _, v := range []float64{s.GPUBusy, s.CPUBusy, s.AvgComputeUt, s.AvgPowerW} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// strike records one invalid decision; enough consecutive strikes trip the
// failover.
func (g *Guard) strike(reason string) {
	g.strikes++
	if g.Obs != nil {
		g.mStrikes.Inc(g.innerName, reason)
		g.Obs.MarkNow("guard", "violation",
			obs.Str("reason", reason), obs.Int("strikes", g.strikes))
	}
	g.audit.RecordGuard(g.auditTrack, "strike", g.Inner.Name(), g.lastGood, reason)
	if !g.fallback && g.strikes >= g.maxStrikes() {
		g.fallback = true
		g.recoverIn = g.recoveryWindows()
		g.Stats.FallbackActivations++
		if g.Obs != nil {
			g.mFallbacks.Inc(g.innerName)
			g.Obs.MarkNow("guard", "fallback",
				obs.Str("fallback", g.Fallback.Name()), obs.Int("strikes", g.strikes))
		}
		g.audit.RecordGuard(g.auditTrack, "failover", g.Inner.Name(), g.lastGood, reason)
	}
}

// pushHistory records a window decision for oscillation detection.
func (g *Guard) pushHistory(lvl int) {
	g.history = append(g.history, lvl)
	if max := g.oscLen(); len(g.history) > max {
		g.history = g.history[len(g.history)-max:]
	}
}

// oscillating reports whether the recent window decisions strictly alternate
// between two levels at least oscSpan apart — the ping-pong pathology of
// Fig. 1B taken to a policy-breaking extreme.
func (g *Guard) oscillating() bool {
	n := g.oscLen()
	if len(g.history) < n {
		return false
	}
	h := g.history[len(g.history)-n:]
	a, b := h[0], h[1]
	if a == b || abs(a-b) < g.oscSpan() {
		return false
	}
	for i, lvl := range h {
		want := a
		if i%2 == 1 {
			want = b
		}
		if lvl != want {
			return false
		}
	}
	return true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

var (
	_ sim.Controller = (*Guard)(nil)
	_ sim.AuditSink  = (*Guard)(nil)
)
