package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"powerlens/internal/obs"
	"powerlens/internal/obs/runlog"
	"powerlens/internal/obs/slo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedObserver builds a deterministic observer covering every exporter
// feature, mirroring the obs package's golden registry.
func fixedObserver() *obs.Observer {
	o := obs.New()
	o.Metrics.Counter("sim_energy_joules_total", "Exactly-integrated rail energy.").Add(123.456)
	jobs := o.Metrics.Counter("cloud_jobs_total", "Jobs by outcome.", "outcome")
	jobs.Add(40, "completed")
	jobs.Add(2, "failover")
	o.Metrics.Gauge("hw_gpu_level", "Current GPU ladder level.").Set(7)
	h := o.Metrics.Histogram("sim_window_power_watts", "Window power.", []float64{1, 4, 16}, "controller")
	for _, v := range []float64{0.5, 2, 8, 32} {
		h.Observe(v, "PowerLens")
	}
	o.Tracer.Complete("block", "b0", 1, 0, 2*time.Millisecond, obs.Int("level", 3))
	o.Tracer.Instant("decision", "d0", 1, time.Millisecond)
	return o
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestMetricsHTTPGolden pins the exact HTTP response bytes (status, headers
// and body) of /metrics for a fixed registry, mirroring the obs package's
// Prometheus golden test. A diff means the scrape surface drifted — update
// deliberately with `go test -update ./internal/obs/serve`.
func TestMetricsHTTPGolden(t *testing.T) {
	s := New(fixedObserver(), nil)
	rec := get(t, s.Handler(), "/metrics")

	var sb strings.Builder
	res := rec.Result()
	fmt.Fprintf(&sb, "%s %s\n", res.Proto, res.Status)
	keys := make([]string, 0, len(res.Header))
	for k := range res.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s: %s\n", k, strings.Join(res.Header[k], ", "))
	}
	sb.WriteString("\n")
	body, _ := io.ReadAll(res.Body)
	sb.Write(body)
	got := sb.String()

	path := filepath.Join("testdata", "metrics_http.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test -update ./internal/obs/serve` to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("/metrics HTTP response drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if fams, err := obs.CheckPrometheusText(strings.NewReader(string(body))); err != nil || fams != 4 {
		t.Fatalf("served body fails the format checker: %d families, %v", fams, err)
	}
}

// fixedTracker builds a deterministic SLO tracker: healthy traffic, then a
// violation burst that trips the latency objective's burn windows.
func fixedTracker() *slo.Tracker {
	tr := slo.New(slo.Config{
		ViolationTarget: 0.1,
		PowerBudgetW:    5,
		Resolution:      100 * time.Millisecond,
		Windows:         []slo.BurnWindow{{Long: 2 * time.Second, Short: 500 * time.Millisecond, Threshold: 5}},
	})
	for at := time.Duration(0); at < 2*time.Second; at += 10 * time.Millisecond {
		tr.RecordPass("alexnet", at, 5*time.Millisecond, 0.01, 0.02, false)
	}
	for at := 2 * time.Second; at < 3*time.Second; at += 10 * time.Millisecond {
		tr.RecordPass("alexnet", at, 20*time.Millisecond, 0.5, 0.02, true)
	}
	return tr
}

// TestSLOHTTPGolden pins the exact HTTP response bytes of /slo for a fixed
// tracker, the same contract as the /metrics golden: a diff means the SLO
// surface drifted. Update deliberately with
// `go test -update ./internal/obs/serve`.
func TestSLOHTTPGolden(t *testing.T) {
	s := New(fixedObserver(), nil)
	s.SetSLO(fixedTracker())
	rec := get(t, s.Handler(), "/slo")

	var sb strings.Builder
	res := rec.Result()
	fmt.Fprintf(&sb, "%s %s\n", res.Proto, res.Status)
	keys := make([]string, 0, len(res.Header))
	for k := range res.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s: %s\n", k, strings.Join(res.Header[k], ", "))
	}
	sb.WriteString("\n")
	body, _ := io.ReadAll(res.Body)
	sb.Write(body)
	got := sb.String()

	path := filepath.Join("testdata", "slo_http.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test -update ./internal/obs/serve` to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("/slo HTTP response drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	var st slo.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/slo body is not a Status: %v", err)
	}
	if len(st.Models) != 1 || st.Models[0].Model != "alexnet" || !st.Alerting {
		t.Fatalf("/slo status wrong: %+v", st)
	}
}

// TestSLOAndMetricsJSONHeaders pins the cacheability contract of the live
// JSON endpoints, and that /slo answers 404 until a tracker is attached.
func TestSLOAndMetricsJSONHeaders(t *testing.T) {
	s := New(fixedObserver(), nil)
	h := s.Handler()

	if rec := get(t, h, "/slo"); rec.Code != http.StatusNotFound {
		t.Fatalf("/slo without a tracker = %d, want 404", rec.Code)
	}
	s.SetSLO(fixedTracker())
	for _, path := range []string{"/metrics.json", "/slo"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s Content-Type = %q", path, ct)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("%s Cache-Control = %q, want no-store", path, cc)
		}
	}
	s.SetSLO(nil)
	if rec := get(t, h, "/slo"); rec.Code != http.StatusNotFound {
		t.Fatalf("/slo after detach = %d, want 404", rec.Code)
	}
}

func TestMetricsJSONAndHealthz(t *testing.T) {
	s := New(fixedObserver(), nil)
	h := s.Handler()

	rec := get(t, h, "/metrics.json")
	var fams []obs.FamilySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &fams); err != nil || len(fams) != 4 {
		t.Fatalf("/metrics.json = %d families, %v", len(fams), err)
	}

	rec = get(t, h, "/healthz")
	var health Health
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.MetricFamilies != 4 || health.TraceEvents != 2 {
		t.Fatalf("healthz = %+v", health)
	}
}

func TestNilObserverEndpointsStillAnswer(t *testing.T) {
	s := New(nil, nil)
	h := s.Handler()
	for _, path := range []string{"/metrics", "/metrics.json", "/healthz"} {
		if rec := get(t, h, path); rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d with nil observer", path, rec.Code)
		}
	}
	if rec := get(t, h, "/runs"); rec.Code != http.StatusNotFound {
		t.Fatalf("/runs without a store = %d, want 404", rec.Code)
	}
}

func TestRunsEndpoints(t *testing.T) {
	store, err := runlog.Open(filepath.Join(t.TempDir(), "runs"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := store.Begin(runlog.Manifest{Scenario: "observe", Platform: "TX2", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	o := fixedObserver()
	s := New(o, store)
	s.SetLiveRun(run.ID())
	h := s.Handler()

	// Index + detail.
	rec := get(t, h, "/runs")
	var ms []runlog.Manifest
	if err := json.Unmarshal(rec.Body.Bytes(), &ms); err != nil || len(ms) != 1 || ms[0].RunID != run.ID() {
		t.Fatalf("/runs = %s (%v)", rec.Body.String(), err)
	}
	rec = get(t, h, "/runs/"+run.ID())
	var m runlog.Manifest
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m.Seed != 7 {
		t.Fatalf("/runs/{id} = %s (%v)", rec.Body.String(), err)
	}
	if rec := get(t, h, "/runs/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("missing run = %d, want 404", rec.Code)
	}

	// Mid-run: no artifact yet, the live tracer answers and round-trips.
	rec = get(t, h, "/runs/"+run.ID()+"/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("live trace = %d: %s", rec.Code, rec.Body.String())
	}
	evs, err := obs.ReadChromeTrace(rec.Body)
	if err != nil || len(evs) != 2 {
		t.Fatalf("live trace round-trip: %d events, %v", len(evs), err)
	}

	// After the artifact is recorded it wins over the live tracer.
	if err := run.WriteArtifact("trace.json", func(w io.Writer) error {
		return obs.WriteChromeTrace(w, o.Tracer.Events()[:1])
	}); err != nil {
		t.Fatal(err)
	}
	rec = get(t, h, "/runs/"+run.ID()+"/trace")
	evs, err = obs.ReadChromeTrace(rec.Body)
	if err != nil || len(evs) != 1 {
		t.Fatalf("recorded trace: %d events, %v", len(evs), err)
	}

	// A non-live run without an artifact 404s.
	other, err := store.Begin(runlog.Manifest{Scenario: "observe", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, h, "/runs/"+other.ID()+"/trace"); rec.Code != http.StatusNotFound {
		t.Fatalf("non-live traceless run = %d, want 404", rec.Code)
	}
}

// TestConcurrentScrapesDuringRun hammers /metrics and the trace endpoint
// while emitters write — the -race acceptance check for the serving path.
func TestConcurrentScrapesDuringRun(t *testing.T) {
	o := obs.New()
	s := New(o, nil)
	s.SetLiveRun("live")
	h := s.Handler()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := o.Metrics.Counter("sim_windows_total", "w", "controller")
		hist := o.Metrics.Histogram("sim_window_power_watts", "p", []float64{1, 2}, "controller")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc("PowerLens")
			hist.Observe(float64(i%3), "PowerLens")
			o.Tracer.Complete("block", "b", 1, time.Duration(i), 1, obs.Int("i", i))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK {
					t.Errorf("/metrics = %d", rec.Code)
					return
				}
				if rec := get(t, h, "/runs/live/trace"); rec.Code != http.StatusOK && s.runs == nil {
					// store is nil: live fallback must still answer
					t.Errorf("/runs/live/trace = %d", rec.Code)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The final scrape parses.
	rec := get(t, h, "/metrics")
	if _, err := obs.CheckPrometheusText(strings.NewReader(rec.Body.String())); err != nil {
		t.Fatalf("post-run scrape invalid: %v", err)
	}
}

func TestSetObserverSwapsSource(t *testing.T) {
	a := obs.New()
	a.Metrics.Counter("a_total", "a").Inc()
	b := obs.New()
	b.Metrics.Counter("b_total", "b").Add(5)

	s := New(a, nil)
	h := s.Handler()
	if body := get(t, h, "/metrics").Body.String(); !strings.Contains(body, "a_total 1") {
		t.Fatalf("first scrape = %q", body)
	}
	s.SetObserver(b)
	body := get(t, h, "/metrics").Body.String()
	if !strings.Contains(body, "b_total 5") || strings.Contains(body, "a_total") {
		t.Fatalf("swapped scrape = %q", body)
	}
}

func TestStartServesOverTCP(t *testing.T) {
	s := New(fixedObserver(), nil)
	run, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	res, err := http.Get(run.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", res.StatusCode)
	}
	res2, err := http.Get(run.URL() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("pprof over TCP = %d", res2.StatusCode)
	}

	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(run.URL() + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
}
