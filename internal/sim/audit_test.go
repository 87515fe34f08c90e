package sim

import (
	"testing"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/audit"
)

// auditingCtl is a fixed-level controller that implements AuditSink and
// records one plan application per layer — the minimal stand-in for a plan
// governor, usable here without importing internal/governor (which would be
// an import cycle).
type auditingCtl struct {
	fixedCtl
	rec    *audit.Recorder
	track  int
	digest uint64
}

func (a *auditingCtl) SetAudit(rec *audit.Recorder, track int) { a.rec, a.track = rec, track }
func (a *auditingCtl) BeforeLayer(g *graph.Graph, layerID int) {
	if a.rec != nil {
		if a.digest == 0 {
			a.digest = graph.Digest(g)
		}
		a.rec.RecordApply(a.track, "test", g.Name, a.digest, 0, layerID, a.level)
	}
}

// TestAuditDoesNotPerturbRun pins that attaching a recorder changes nothing
// about the simulation: results are DeepEqual with auditing on and off, while
// the recorder observes every plan application.
func TestAuditDoesNotPerturbRun(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()

	plain := NewExecutor(p, &auditingCtl{fixedCtl: fixedCtl{level: 3}})
	rPlain := plain.RunTask(g, 6)

	rec := audit.New(audit.Config{})
	audited := NewExecutor(p, &auditingCtl{fixedCtl: fixedCtl{level: 3}})
	audited.Audit = rec
	audited.AuditTrack = 7
	rAudited := audited.RunTask(g, 6)

	if !sameResult(rPlain, rAudited) {
		t.Fatalf("auditing perturbed the run:\noff %+v\non  %+v", rPlain, rAudited)
	}
	snap := rec.Snapshot()
	wantApplies := uint64(6 * len(g.Layers))
	if snap.Records != wantApplies {
		t.Fatalf("recorded %d applies, want %d (6 passes × %d layers)",
			snap.Records, wantApplies, len(g.Layers))
	}
	if len(snap.Tracks) != 1 || snap.Tracks[0].Track != 7 {
		t.Fatalf("records not keyed under AuditTrack 7: %+v", snap.Tracks)
	}
}

// TestAuditZeroAllocWhenDisabled extends the serving fast-path pin to a
// controller that implements AuditSink: with no recorder attached, the sink
// wiring and the per-layer nil checks must stay off the heap entirely.
func TestAuditZeroAllocWhenDisabled(t *testing.T) {
	p := hw.TX2()
	e := NewExecutor(p, &auditingCtl{fixedCtl: fixedCtl{level: 3}})
	e.SensorPeriod = 0
	g := models.AlexNet()
	e.RunTask(g, 2) // warm: sensor, cost grid

	allocs := testing.AllocsPerRun(10, func() {
		e.RunTask(g, 2)
	})
	if allocs != 0 {
		t.Fatalf("warm audited-sink RunTask allocated %.0f times per run, want 0", allocs)
	}
}

// TestAuditRecordsOnSimulatedClock pins that ring records are timestamped by
// the executor-installed simulated clock: non-decreasing and bounded by the
// run's simulated duration.
func TestAuditRecordsOnSimulatedClock(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	rec := audit.New(audit.Config{RingSize: 4096})
	e := NewExecutor(p, &auditingCtl{fixedCtl: fixedCtl{level: 3}})
	e.Audit = rec
	r := e.RunTask(g, 4)

	snap := rec.Snapshot()
	if len(snap.Tracks) != 1 {
		t.Fatalf("want 1 track, got %d", len(snap.Tracks))
	}
	last := -1.0
	for _, rs := range snap.Tracks[0].Records {
		if rs.AtS < last {
			t.Fatalf("record timestamps went backwards: %.6f after %.6f", rs.AtS, last)
		}
		if rs.AtS < 0 || rs.AtS > r.Time.Seconds() {
			t.Fatalf("record at %.6fs outside run duration %.6fs", rs.AtS, r.Time.Seconds())
		}
		last = rs.AtS
	}
	if last <= 0 {
		t.Fatal("no record carried a nonzero simulated timestamp")
	}
}

// TestAuditSinkRewiredEachRun pins the stale-recorder guarantee: clearing
// Executor.Audit detaches the controller from the previous run's recorder.
func TestAuditSinkRewiredEachRun(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	rec := audit.New(audit.Config{})
	ctl := &auditingCtl{fixedCtl: fixedCtl{level: 3}}
	e := NewExecutor(p, ctl)
	e.Audit = rec
	e.RunTask(g, 2)
	before := rec.Snapshot().Records
	if before == 0 {
		t.Fatal("audited run recorded nothing")
	}

	e.Audit = nil
	e.RunTask(g, 2)
	if after := rec.Snapshot().Records; after != before {
		t.Fatalf("detached recorder still grew: %d → %d records", before, after)
	}
}
