// Package serve is the live telemetry plane: a stdlib-only net/http server
// over the obs observability core. It exposes the metrics registry as a
// Prometheus scrape target and as JSON, the decision-span tracer as a
// mid-run Chrome trace download, the runlog provenance store as a browsable
// run index, and the standard net/http/pprof profiling endpoints — so a
// running fleet can be watched while it executes instead of only inspected
// from end-of-run file exports.
//
// Endpoints:
//
//	GET /metrics          Prometheus text exposition (version 0.0.4)
//	GET /metrics.json     registry snapshot as JSON family array
//	GET /slo              SLO tracker status: objectives, burn rates, alerts
//	GET /audit            decision-audit snapshot: records, applies, guard
//	                      events, per-model calibration (agreement/regret)
//	GET /drift            feature-drift status: per-dimension PSI scores vs
//	                      the training baseline, alert state
//	GET /healthz          liveness + schema/build info + coarse telemetry counts
//	GET /runs             run-manifest index (runlog store)
//	GET /runs/{id}        one run's manifest
//	GET /runs/{id}/trace  Chrome trace_event JSON; the live tracer when the
//	                      run is still executing, the recorded artifact after
//	GET /debug/pprof/...  standard pprof handlers
//
// The observer source is swappable at runtime (SetObserver), so a scenario
// that builds a fresh observer per platform can keep one server running and
// point it at the currently-executing run.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerlens/internal/obs"
	"powerlens/internal/obs/audit"
	"powerlens/internal/obs/runlog"
	"powerlens/internal/obs/slo"
)

// ContentTypePrometheus is the scrape content type for /metrics.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// HealthSchema identifies the /healthz payload layout; bump it when fields
// change meaning so probes can gate on what they are parsing.
const HealthSchema = 1

// Health is the /healthz payload. Status stays the first field and always
// renders ("status": "ok"), so cheap liveness greps keep working.
type Health struct {
	Status         string  `json:"status"`
	Schema         int     `json:"schema"`
	GoVersion      string  `json:"goVersion"`
	UptimeSeconds  float64 `json:"uptimeSeconds"`
	MetricFamilies int     `json:"metricFamilies"`
	TraceEvents    int     `json:"traceEvents"`
	AuditRecords   uint64  `json:"auditRecords,omitempty"`
	Runs           int     `json:"runs,omitempty"`
	LiveRun        string  `json:"liveRun,omitempty"`
}

// Server serves live telemetry for one observer (swappable) and one
// optional run store. Construct with New; the zero value is not usable.
type Server struct {
	src     atomic.Pointer[obs.Observer]
	liveRun atomic.Pointer[string]
	slo     atomic.Pointer[slo.Tracker]
	audit   atomic.Pointer[audit.Recorder]
	runs    *runlog.Store
	started time.Time

	// Connection timeouts applied by Start (zero = the package defaults
	// below). Without them a client that opens a socket and never finishes
	// its request pins a connection forever — and, before graceful shutdown
	// existed here, wedged process exit.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration

	// The scrape path reuses one snapshot buffer and one render buffer so a
	// high-frequency scraper does not churn allocations; scrapeMu serializes
	// concurrent scrapes over them.
	scrapeMu  sync.Mutex
	scrapeBuf []obs.FamilySnapshot
	renderBuf bytes.Buffer
}

// New returns a server reading from o (may be nil until SetObserver) and
// indexing runs from store (may be nil: /runs then answers 404).
func New(o *obs.Observer, store *runlog.Store) *Server {
	s := &Server{runs: store, started: time.Now()}
	s.src.Store(o)
	return s
}

// SetObserver atomically swaps the observer the telemetry endpoints read.
func (s *Server) SetObserver(o *obs.Observer) { s.src.Store(o) }

// SetLiveRun names the run id currently executing against the observer;
// /runs/{id}/trace serves the live tracer for it until the trace artifact
// is recorded.
func (s *Server) SetLiveRun(id string) { s.liveRun.Store(&id) }

// SetSLO atomically swaps the SLO tracker /slo reads; nil detaches it
// (/slo then answers 404).
func (s *Server) SetSLO(t *slo.Tracker) { s.slo.Store(t) }

// SetAudit atomically swaps the audit recorder /audit and /drift read; nil
// detaches it (both then answer 404).
func (s *Server) SetAudit(rec *audit.Recorder) { s.audit.Store(rec) }

func (s *Server) observer() *obs.Observer { return s.src.Load() }

func (s *Server) liveRunID() string {
	if p := s.liveRun.Load(); p != nil {
		return *p
	}
	return ""
}

// Handler returns the telemetry mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("GET /audit", s.handleAudit)
	mux.HandleFunc("GET /drift", s.handleDrift)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /runs", s.handleRuns)
	mux.HandleFunc("GET /runs/{id}", s.handleRun)
	mux.HandleFunc("GET /runs/{id}/trace", s.handleRunTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics renders the live registry in the Prometheus text format
// using the pooled SnapshotInto buffer: a steady-state scrape re-sorts
// nothing and allocates (almost) nothing.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	o := s.observer()
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	var reg *obs.Registry
	if o != nil {
		reg = o.Metrics
	}
	s.scrapeBuf = reg.SnapshotInto(s.scrapeBuf)
	s.renderBuf.Reset()
	if err := obs.WriteSnapshotPrometheus(&s.renderBuf, s.scrapeBuf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentTypePrometheus)
	w.Header().Set("Content-Length", fmt.Sprint(s.renderBuf.Len()))
	w.Write(s.renderBuf.Bytes())
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	var reg *obs.Registry
	if o := s.observer(); o != nil {
		reg = o.Metrics
	}
	// Live telemetry: a cached snapshot is a stale snapshot.
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, reg.Snapshot())
}

// handleSLO serves the SLO tracker's status: per-model objectives with
// multi-window burn rates and alert state. Rendered to a buffer first so an
// encoding failure yields a clean 500 instead of a half-written body.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	t := s.slo.Load()
	if t == nil {
		http.Error(w, "no SLO tracker configured", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.Write(buf.Bytes())
}

// handleAudit serves the decision-audit recorder's deterministic snapshot:
// ring records per track, plan-apply and guard aggregates, per-model
// calibration (agreement ratio, regret quantiles) and, when a drift monitor
// is attached, the drift status inline.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	rec := s.audit.Load()
	if rec == nil {
		http.Error(w, "no audit recorder configured", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.Write(buf.Bytes())
}

// handleDrift serves the attached drift monitor's status on its own: the
// per-dimension PSI scores against the training baseline and the alert
// state, without the rest of the audit snapshot.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	rec := s.audit.Load()
	if rec == nil || rec.DriftMonitor() == nil {
		http.Error(w, "no drift monitor configured", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := rec.DriftMonitor().WriteJSON(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.Write(buf.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		Schema:        HealthSchema,
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		LiveRun:       s.liveRunID(),
	}
	if o := s.observer(); o != nil {
		h.MetricFamilies = len(o.Metrics.Snapshot())
		h.TraceEvents = o.Tracer.Len()
	}
	if rec := s.audit.Load(); rec != nil {
		h.AuditRecords = rec.Snapshot().Records
	}
	if s.runs != nil {
		if ms, err := s.runs.List(); err == nil {
			h.Runs = len(ms)
		}
	}
	writeJSON(w, h)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.runs == nil {
		http.Error(w, "no run store configured", http.StatusNotFound)
		return
	}
	ms, err := s.runs.List()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if ms == nil {
		ms = []runlog.Manifest{}
	}
	writeJSON(w, ms)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.runs == nil {
		http.Error(w, "no run store configured", http.StatusNotFound)
		return
	}
	m, err := s.runs.Get(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, m)
}

// handleRunTrace serves a run's Chrome trace: the recorded artifact when the
// run has exported one, otherwise — for the currently-live run — a
// copy-on-read snapshot of the live tracer, so a run can be inspected in
// Perfetto while it is still executing.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.runs != nil {
		if path, err := s.runs.ArtifactPath(id, "trace.json"); err == nil {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+"_trace.json"))
			http.ServeFile(w, r, path)
			return
		}
	}
	o := s.observer()
	if o == nil || id == "" || id != s.liveRunID() {
		http.Error(w, fmt.Sprintf("run %q has no recorded trace and is not live", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+"_trace.json"))
	if err := o.Tracer.WriteTrace(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Running is a started server; Close shuts it down.
type Running struct {
	srv  *http.Server
	addr net.Addr
}

// Default connection timeouts. Scrapes and trace downloads are small and
// local; anything slower than these is a hung or hostile peer.
const (
	DefaultReadHeaderTimeout = 5 * time.Second
	DefaultReadTimeout       = time.Minute
	DefaultWriteTimeout      = time.Minute
	DefaultIdleTimeout       = 2 * time.Minute
)

func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// Start listens on addr (":0" picks a free port) and serves the telemetry
// mux in a background goroutine with the server's connection timeouts.
func (s *Server) Start(addr string) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: orDefault(s.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		ReadTimeout:       orDefault(s.ReadTimeout, DefaultReadTimeout),
		WriteTimeout:      orDefault(s.WriteTimeout, DefaultWriteTimeout),
		IdleTimeout:       orDefault(s.IdleTimeout, DefaultIdleTimeout),
	}
	go srv.Serve(ln)
	return &Running{srv: srv, addr: ln.Addr()}, nil
}

// Addr returns the bound address.
func (r *Running) Addr() net.Addr { return r.addr }

// URL returns the server's base URL.
func (r *Running) URL() string { return "http://" + r.addr.String() }

// Close stops the server immediately (in-flight scrapes are abandoned —
// telemetry readers retry, they do not need draining).
func (r *Running) Close() error { return r.srv.Close() }

// Shutdown stops accepting new connections and waits for in-flight requests
// to finish, up to ctx's deadline; on expiry it falls back to Close so a
// hung client (half-sent request, stalled read) cannot wedge process exit.
func (r *Running) Shutdown(ctx context.Context) error {
	if err := r.srv.Shutdown(ctx); err != nil {
		cerr := r.srv.Close()
		if cerr != nil && !errors.Is(cerr, http.ErrServerClosed) {
			return fmt.Errorf("serve: shutdown: %w (close: %v)", err, cerr)
		}
		return fmt.Errorf("serve: forced close after shutdown timeout: %w", err)
	}
	return nil
}
