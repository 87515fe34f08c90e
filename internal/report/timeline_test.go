package report

import (
	"strings"
	"testing"
	"time"

	"powerlens/internal/obs"
)

func sampleEvents() []obs.Event {
	o := obs.New()
	clock := time.Duration(0)
	o.SetClock(func() time.Duration { clock += 10 * time.Millisecond; return clock })
	for i := 0; i < 5; i++ {
		o.Span("block", "727 MHz", time.Duration(i)*100*time.Millisecond,
			90*time.Millisecond)
		o.Mark("decision", "d", time.Duration(i)*100*time.Millisecond)
	}
	o.Span("actuation", "dvfs-switch", 95*time.Millisecond, 5*time.Millisecond)
	n := o.ForTrack(102)
	n.Span("block", "1300 MHz", 0, 50*time.Millisecond)
	j := o.ForTrack(12)
	j.Span("job", "resnet152", 0, 400*time.Millisecond)
	j.Mark("node", "crash", 410*time.Millisecond)
	o.Tracer.Instant("job", "dropped", 0, 420*time.Millisecond)
	return o.Tracer.Events()
}

func TestTimelineSVG(t *testing.T) {
	svg := TimelineSVG(sampleEvents())
	wellFormed(t, svg)
	for _, want := range []string{"flow", "node 2 exec", "node 2 jobs", "dropped",
		"block", "actuation", "rect"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("timeline missing %q:\n%s", want, svg)
		}
	}
	// Dense decision instants are deliberately excluded from the timeline.
	if strings.Contains(svg, "decision") {
		t.Fatal("decision instants must not clutter the timeline")
	}
	wellFormed(t, TimelineSVG(nil))
}

func TestTimelineThinning(t *testing.T) {
	// Far more events than the element budget: the SVG must stay bounded.
	var evs []obs.Event
	o := obs.New()
	for i := 0; i < 20000; i++ {
		o.Span("block", "x", time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	evs = o.Tracer.Events()
	svg := TimelineSVG(evs)
	wellFormed(t, svg)
	if n := strings.Count(svg, "<rect"); n > timelineMaxElems+10 {
		t.Fatalf("thinning failed: %d rects for %d events", n, len(evs))
	}
}

func TestObsMetricsTable(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("sim_images_total", "Images.", "controller").Add(100, "PowerLens")
	r.Gauge("hw_gpu_level", "Level.").Set(7)
	html := ObsMetricsTable(r.Snapshot())
	wellFormed(t, html)
	for _, want := range []string{"sim_images_total", "hw_gpu_level", "counter",
		"gauge", "controller", "100"} {
		if !strings.Contains(html, want) {
			t.Fatalf("metrics table missing %q:\n%s", want, html)
		}
	}
}
