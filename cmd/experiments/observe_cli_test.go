package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerlens/internal/obs"
)

func TestParseObserveFlags(t *testing.T) {
	f, err := parseObserveFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.networks != 400 || f.seed != 1 || f.tasks != 20 || f.nodes != 3 || f.jobs != 20 {
		t.Fatalf("defaults = %+v", f)
	}
	if f.traceOut != "observe_trace.json" || f.metricsOut != "observe_metrics.prom" {
		t.Fatalf("default outputs = %+v", f)
	}
	if f.serve != "" || f.serveFor != 0 || f.runDir != "" {
		t.Fatalf("telemetry must default off: %+v", f)
	}

	f, err = parseObserveFlags([]string{
		"-networks", "7", "-seed", "9", "-tasks", "3", "-nodes", "2", "-jobs", "4",
		"-trace-out", "t.json", "-metrics-out", "m.prom",
		"-serve", ":8080", "-serve-for", "5s", "-run-dir", "runs",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := observeFlags{networks: 7, seed: 9, tasks: 3, nodes: 2, jobs: 4,
		traceOut: "t.json", metricsOut: "m.prom",
		serve: ":8080", serveFor: 5 * time.Second, runDir: "runs"}
	if f != want {
		t.Fatalf("parsed = %+v, want %+v", f, want)
	}

	if _, err := parseObserveFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestParseResilienceFlags(t *testing.T) {
	f, err := parseResilienceFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.networks != 400 || f.tasks != 40 || f.nodes != 4 || f.jobs != 40 {
		t.Fatalf("defaults = %+v", f)
	}
	if f.observed() {
		t.Fatalf("default flags must take the plain path: %+v", f)
	}
	for _, args := range [][]string{
		{"-trace-out", "t.json"},
		{"-metrics-out", "m.prom"},
		{"-serve", ":0"},
		{"-run-dir", "runs"},
	} {
		f, err := parseResilienceFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if !f.observed() {
			t.Fatalf("%v must select the instrumented variant", args)
		}
	}
	if _, err := parseResilienceFlags([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestScenarioFlagsRejectNonPositiveCounts pins the scenario CLIs' count
// validation: a -tasks, -nodes, -jobs, -traffic or -audited of zero or less
// is an error naming the flag (the commands exit 2 on it), and the smallest
// positive count parses. drift also refuses a -threshold that is not a
// positive finite number and an -audited above -traffic, which the scenario
// would otherwise replace silently.
func TestScenarioFlagsRejectNonPositiveCounts(t *testing.T) {
	parseDrift := func(a []string) error { _, err := parseDriftFlags(a); return err }
	parsers := map[string]struct {
		parse func([]string) error
		flags []string
		base  []string // parsed before the flag under test
	}{
		"observe": {func(a []string) error { _, err := parseObserveFlags(a); return err }, []string{"tasks", "nodes", "jobs"}, nil},
		"resilience": {func(a []string) error { _, err := parseResilienceFlags(a); return err },
			[]string{"tasks", "nodes", "jobs"}, nil},
		"slo": {func(a []string) error { _, err := parseSLOFlags(a); return err }, []string{"tasks"}, nil},
		// -traffic 1 is valid only with -audited at most 1.
		"drift": {parseDrift, []string{"traffic", "audited"}, []string{"-audited", "1"}},
	}
	for cmd, p := range parsers {
		for _, name := range p.flags {
			for _, v := range []string{"0", "-3"} {
				err := p.parse(append(p.base, "-"+name, v))
				want := "-" + name + " must be positive, got " + v
				if err == nil || err.Error() != want {
					t.Errorf("%s -%s %s: error %v, want %q", cmd, name, v, err, want)
				}
			}
			if err := p.parse(append(p.base, "-"+name, "1")); err != nil {
				t.Errorf("%s -%s 1: %v", cmd, name, err)
			}
		}
	}

	for _, v := range []string{"0", "-1", "NaN", "+Inf"} {
		err := parseDrift([]string{"-threshold", v})
		want := "-threshold must be positive and finite, got " + v
		if err == nil || err.Error() != want {
			t.Errorf("drift -threshold %s: error %v, want %q", v, err, want)
		}
	}
	if err := parseDrift([]string{"-threshold", "0.25"}); err != nil {
		t.Errorf("drift -threshold 0.25: %v", err)
	}
	err := parseDrift([]string{"-traffic", "4", "-audited", "5"})
	if want := "-audited 5 must not exceed -traffic 4"; err == nil || err.Error() != want {
		t.Errorf("drift -traffic 4 -audited 5: error %v, want %q", err, want)
	}
	if err := parseDrift([]string{"-traffic", "4", "-audited", "4"}); err != nil {
		t.Errorf("drift -traffic 4 -audited 4: %v", err)
	}
}

// exportTestObserver builds a small observer with one counter and one span.
func exportTestObserver() (*obs.Observer, []obs.Event) {
	o := obs.New()
	o.Metrics.Counter("cli_test_total", "plumbing test", "who").Inc("tester")
	o.Tracer.Complete("span", "test", 1, 0, time.Millisecond)
	return o, o.Tracer.Events()
}

func TestExportObs(t *testing.T) {
	dir := t.TempDir()
	o, events := exportTestObserver()
	tOut := filepath.Join(dir, "trace.json")
	mOut := filepath.Join(dir, "metrics.prom")
	if err := exportObs(o, events, tOut, mOut); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), "traceEvents") {
		t.Fatalf("trace output not a Chrome trace: %q", trace)
	}
	prom, err := os.ReadFile(mOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "cli_test_total") {
		t.Fatalf("metrics output missing the counter: %q", prom)
	}

	// Empty paths skip cleanly.
	if err := exportObs(o, events, "", ""); err != nil {
		t.Fatal(err)
	}

	// Unwritable destinations (a path under a regular file) surface as
	// errors instead of exiting, for both artifacts.
	blocked := filepath.Join(dir, "metrics.prom", "nested.json")
	if err := exportObs(o, events, blocked, ""); err == nil {
		t.Fatal("unwritable trace path did not error")
	}
	if err := exportObs(o, events, "", blocked); err == nil {
		t.Fatal("unwritable metrics path did not error")
	}
}

func TestWithSuffix(t *testing.T) {
	cases := map[[2]string]string{
		{"trace.json", "_TX2"}: "trace_TX2.json",
		{"m.prom", "_AGX"}:     "m_AGX.prom",
		{"noext", "_TX2"}:      "noext_TX2",
	}
	for in, want := range cases {
		if got := withSuffix(in[0], in[1]); got != want {
			t.Fatalf("withSuffix(%q, %q) = %q, want %q", in[0], in[1], got, want)
		}
	}
}

func TestRegistryTotals(t *testing.T) {
	o, _ := exportTestObserver()
	o.Metrics.Counter("cli_more_total", "second family", "who").Add(4, "tester")
	m := registryTotals(o.Metrics.Snapshot())
	if m["cli_test_total"] != 1 || m["cli_more_total"] != 4 || len(m) != 2 {
		t.Fatalf("totals = %v", m)
	}
}

// TestTelemetryPlumbing drives the CLI helpers end to end without a
// deployment: open a store, start a server on a free port, begin a run,
// finish it with artifacts, and check the server indexed all of it.
func TestTelemetryPlumbing(t *testing.T) {
	dir := t.TempDir()
	store := openRunStore(filepath.Join(dir, "runs"))
	if store == nil {
		t.Fatal("openRunStore returned nil for a real dir")
	}
	if s := openRunStore(""); s != nil {
		t.Fatal("empty run dir must disable the store")
	}

	o, events := exportTestObserver()
	srv, running := startTelemetry(":0", o, store)
	if srv == nil || running == nil {
		t.Fatal("startTelemetry did not start")
	}
	defer running.Close()
	if srv2, r2 := startTelemetry("", o, store); srv2 != nil || r2 != nil {
		t.Fatal("empty serve addr must disable the server")
	}

	run := beginRun(store, "observe", "TX2", 42, struct{ Tasks int }{3})
	srv.SetLiveRun(run.ID())
	finishRun(run, o, events, 1500*time.Millisecond, map[string]float64{"flow_images": 5})

	m, err := store.Get(run.ID())
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics["flow_images"] != 5 || m.WallMS != 1500 || m.ConfigDigest == "" {
		t.Fatalf("manifest = %+v", m)
	}
	for _, a := range []string{"trace.json", "metrics.prom"} {
		if _, ok := m.Artifacts[a]; !ok {
			t.Fatalf("artifact %s not recorded: %v", a, m.Artifacts)
		}
	}

	for _, path := range []string{"/healthz", "/metrics", "/runs", "/runs/" + run.ID(), "/runs/" + run.ID() + "/trace"} {
		resp, err := http.Get(running.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s returned an empty payload", path)
		}
	}
}
