package cqbound

// Serving-path observability (ARCHITECTURE §12): request correlation,
// latency and queue-wait histograms, Prometheus text exposition, runtime
// introspection endpoints, and bound-calibration telemetry. Everything
// here hangs off Server.obs; a server built WithoutObservability leaves
// it nil and every call below degrades to a nil check.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"cqbound/internal/metrics"
	"cqbound/internal/obs"
)

// serverObs is the Server's observability state: the latency and
// queue-wait histograms (registry entries, see registerObsMetrics), the
// in-flight registry, the calibration recorder, and the optional sampled
// access log.
type serverObs struct {
	latency   *metrics.Histogram
	queueWait *metrics.Histogram
	inflight  *obs.Inflight
	calib     *obs.Calibration
	access    *obs.AccessLog
}

// newServerObs builds the obs state but the histograms, which
// registerObsMetrics takes from the engine's registry.
func newServerObs(accessW io.Writer, accessEvery int) *serverObs {
	return &serverObs{
		inflight: obs.NewInflight(),
		calib:    obs.NewCalibration(),
		access:   obs.NewAccessLog(accessW, accessEvery),
	}
}

// WithAccessLog enables the sampled JSON access log: every non-200 and
// every clamped request is always logged, plain successes one-in-every.
func WithAccessLog(w io.Writer, every int) ServerOption {
	return func(c *serverConfig) {
		c.accessW, c.accessEvery = w, every
	}
}

// WithoutObservability disables the serving-path observability layer:
// no correlation IDs, latency histograms, calibration, access log or
// /debug endpoints. /metrics (JSON and Prometheus) still serves the engine
// registry. Exists for overhead measurement (cqload -obsbench) and for
// embedders that bring their own middleware.
func WithoutObservability() ServerOption {
	return func(c *serverConfig) { c.noObs = true }
}

// statusRecorder captures the response status and body size for the
// access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// serveObserved is the correlation middleware: resolve or mint the
// request ID, echo it on the response, register the request in the
// in-flight table, attach its state to the context, and on the way out
// observe the latency and write the access log.
func (s *Server) serveObserved(w http.ResponseWriter, r *http.Request) {
	o := s.obs
	start := time.Now()
	id := obs.IDFromHeaders(r.Header)
	if id == "" {
		id = obs.NewID()
	}
	rs := obs.NewRequestState(id, r.Method, r.URL.Path, start)
	o.inflight.Register(rs)
	defer o.inflight.Done(rs)
	w.Header().Set(obs.HeaderRequestID, id)
	rec := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r.WithContext(obs.WithRequest(r.Context(), rs)))
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	rs.Update(func(r *obs.Request) { r.Status, r.Bytes = rec.status, rec.bytes })
	done := rs.Snapshot(time.Now())
	o.latency.Observe(done.ElapsedNs)
	o.access.Log(done)
}

// retryAfterSeconds derives the Retry-After hint for a 429 from the p99
// of serve_queue_wait_ns: a shed client waits about as long as a queued
// one did. The histogram is cumulative since the server started
// (registry histograms survive ResetStats), so the hint follows the
// server's whole history, not the last minute. Falls back to 1s when
// observability is off (no histogram to consult).
func (s *Server) retryAfterSeconds() int {
	if s.obs == nil {
		return 1
	}
	return obs.RetryAfterSeconds(s.obs.queueWait.Snapshot().P99)
}

// shapeOf coarsely classifies a query for calibration cells: body atom
// count and distinct variable count. Fine enough to separate chains from
// triangles from stars in the benchmark mixes, coarse enough that cells
// accumulate meaningful counts.
func shapeOf(q *Query) string {
	vars := make(map[string]struct{})
	for _, a := range q.Body {
		for _, v := range a.Vars {
			vars[string(v)] = struct{}{}
		}
	}
	return fmt.Sprintf("atoms=%d/vars=%d", len(q.Body), len(vars))
}

// recordCalibration feeds one evaluation's predicted-versus-actual rows
// into the calibration telemetry.
func (s *Server) recordCalibration(strategy, shape string, bound, estimate float64, actualRows int) {
	if s.obs == nil {
		return
	}
	s.obs.calib.Record(strategy, shape, bound, estimate, float64(actualRows))
}

// registerObsRoutes adds the introspection endpoints. /healthz and
// /readyz are registered unconditionally (they answer off server state,
// not obs state); the /debug and /calibration endpoints need s.obs.
func (s *Server) registerObsRoutes(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	if s.obs == nil {
		return
	}
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/calibration", s.handleCalibration)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// handleHealthz reports liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleReadyz reports readiness: 503 once Close has run (snapshot
// sessions drained, no new pins accepted), 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.snapMu.Lock()
	closed := s.closed
	s.snapMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if closed {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("closing\n"))
		return
	}
	w.Write([]byte("ready\n"))
}

// handleDebugRequests lists the requests in flight right now, oldest
// first, each as the obs.Request record the access log writes when it
// ends: request ID, lifecycle state, elapsed time, pinned epoch, bound and
// charge, queue position.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	reqs := s.obs.inflight.Snapshot(time.Now())
	s.reply(w, http.StatusOK, map[string]any{
		"inflight": len(reqs),
		"requests": reqs,
	})
}

// handleCalibration serves the bound-calibration telemetry: per
// (strategy, shape), the log₂-ratio error distributions of the paper's
// worst-case bound and the System-R estimate against actual output rows.
func (s *Server) handleCalibration(w http.ResponseWriter, _ *http.Request) {
	cells := s.obs.calib.Snapshot()
	if cells == nil {
		cells = []obs.CellSnapshot{}
	}
	s.reply(w, http.StatusOK, map[string]any{
		"records": s.obs.calib.Records(),
		"cells":   cells,
	})
}

// handleMetrics serves the metric registry: expvar-shaped JSON by
// default, Prometheus text exposition with ?format=prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.FormValue("format") != "prom" {
		s.e.Metrics().ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w, s.promFamilies())
}

// promFamilies assembles the full Prometheus exposition: every registry
// entry, typed by its declared kind (the serve latency and queue-wait
// histograms among them), and the calibration histograms (labeled by
// strategy and query shape).
func (s *Server) promFamilies() []obs.Family {
	reg := s.e.Metrics()
	var fams []obs.Family
	for _, e := range reg.Entries() {
		f := obs.Family{Name: obs.SanitizeName(e.Name), Help: e.Help, Type: obs.MetricType(e.Kind.String())}
		if h := reg.Histogram(e.Name); h != nil {
			buckets, sum, count := h.Buckets()
			f.Samples = []obs.Sample{{Hist: obs.Pow2Hist(buckets, sum, count)}}
		} else {
			v, _ := reg.Value(e.Name)
			f.Samples = []obs.Sample{{Value: float64(v)}}
		}
		fams = append(fams, f)
	}
	if s.obs == nil {
		return fams
	}
	return append(fams, s.obs.calib.PromFamilies()...)
}

// registerObsMetrics adds the observability families to the engine's
// registry so the JSON /metrics view and MetricsSnapshot carry them too.
func (s *Server) registerObsMetrics(reg *MetricsRegistry) {
	o := s.obs
	if o == nil {
		return
	}
	reg.Gauge("serve_inflight", "requests in flight now", func() int64 { return int64(o.inflight.Len()) })
	o.latency = reg.NewHistogram("serve_latency_ns", "wall time of HTTP requests")
	o.queueWait = reg.NewHistogram("serve_queue_wait_ns", "admission queue wait of granted queries")
	reg.Counters(o.access.Counters())
	reg.Counters(o.calib.Counters())
	reg.Gauge("calibration_cells", "(strategy, shape) calibration cells", func() int64 { return int64(o.calib.Cells()) })
}
