package cqbound

// The cqserve HTTP front-end: a Server exposing one Engine to concurrent
// network clients with per-request deadlines, bound-based admission
// control (internal/serve), an epoch-keyed result cache, and the PR 8
// observability surface (/metrics, ?trace=1, slow-query sinks). The
// engine-agnostic pieces live in internal/serve; this file is the glue
// that needs the Engine's unexported state (governor, epoch store).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cqbound/internal/obs"
	"cqbound/internal/serve"
)

// Server default knobs; all overridable through server options.
const (
	// defaultRequestTimeout bounds each request's context.
	defaultRequestTimeout = 30 * time.Second
	// defaultAdmissionBudget applies when the engine has no memory budget
	// to inherit (<= 0 governor budget means unlimited).
	defaultAdmissionBudget = 64 << 20
	// defaultAdmissionQueue is the FIFO depth beyond which Admit rejects.
	defaultAdmissionQueue = 16
	// defaultResultCacheSize is the (query, epoch) result cache capacity.
	defaultResultCacheSize = 256
	// estBytesPerValue is the resident cost charged per output value when
	// converting a planner row bound to an admission reservation: one
	// interned uint32 column cell plus index/dedup overhead.
	estBytesPerValue = 8
)

// Server is the cqserve HTTP front-end over one Engine. Endpoints:
//
//	GET/POST /query?q=Q[&epoch=N][&trace=1]  evaluate Q (JSON tuples)
//	POST     /commit                         apply a transaction (JSON ops)
//	GET      /explain?q=Q                    plan, rationale and row bound
//	GET      /metrics                        engine + serve metric registry
//	POST     /snapshot                       pin the live epoch; returns it
//	DELETE   /snapshot?epoch=N               release a pinned epoch
//
// Each request runs under a deadline; each query passes admission before
// evaluation, reserving its paper-derived worst-case size out of the
// governor budget (429 when the queue is full). Server implements
// http.Handler and is safe for concurrent use.
type Server struct {
	e        *Engine
	admit    *serve.Admission
	cache    *serve.Cache[*cachedResult]
	mux      *http.ServeMux
	timeout  time.Duration
	cacheOn  bool
	requests atomic.Int64
	errors   atomic.Int64

	// obs is the serving-path observability state (serve_obs.go); nil
	// when the server was built WithoutObservability.
	obs *serverObs

	snapMu sync.Mutex
	snaps  map[uint64]*snapSession
	closed bool
}

// snapSession is one HTTP-pinned epoch: the underlying Snapshot, a count
// of POST /snapshot pins outstanding (clients pinning the same epoch
// share the session; it dies with its last DELETE), and a refcount of
// in-flight requests reading it, so a DELETE during a long evaluation
// defers the release instead of racing the retirement sweep.
type snapSession struct {
	snap     *Snapshot
	pins     int
	refs     int
	released bool
}

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

type serverConfig struct {
	timeout     time.Duration
	budget      int64
	queue       int
	cacheSize   int
	noObs       bool
	obsClock    obs.Clock
	accessW     io.Writer
	accessEvery int
}

// WithRequestTimeout bounds every request's context; handlers return 503
// when it expires. d <= 0 keeps the default (30s).
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithAdmissionBudget sets the byte budget the admission controller
// rations, overriding the default of the engine's own memory budget (or
// 64 MiB when the engine has none).
func WithAdmissionBudget(bytes int64) ServerOption {
	return func(c *serverConfig) {
		if bytes > 0 {
			c.budget = bytes
		}
	}
}

// WithAdmissionQueue sets how many requests may wait for budget before
// Admit rejects with 429. Zero queues nothing — contention rejects
// immediately.
func WithAdmissionQueue(n int) ServerOption {
	return func(c *serverConfig) {
		if n >= 0 {
			c.queue = n
		}
	}
}

// WithResultCache sets the (query, epoch) result cache capacity in
// entries. Zero disables the cache — every request re-evaluates, which
// the saturation tests rely on.
func WithResultCache(entries int) ServerOption {
	return func(c *serverConfig) {
		c.cacheSize = entries
	}
}

// NewServer wraps e in the cqserve HTTP front-end and registers the serve
// stats family (admission and cache counters) on e.Metrics(). The server
// holds no goroutines of its own; Close releases any epochs still pinned
// by snapshot sessions.
func NewServer(e *Engine, opts ...ServerOption) *Server {
	cfg := serverConfig{
		timeout:   defaultRequestTimeout,
		budget:    e.spill.Budget(),
		queue:     defaultAdmissionQueue,
		cacheSize: defaultResultCacheSize,
	}
	if cfg.budget <= 0 {
		cfg.budget = defaultAdmissionBudget
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		e:       e,
		admit:   serve.NewAdmission(cfg.budget, cfg.queue, e.spill),
		timeout: cfg.timeout,
		cacheOn: cfg.cacheSize > 0,
		snaps:   make(map[uint64]*snapSession),
	}
	if s.cacheOn {
		s.cache = serve.NewCache[*cachedResult](cfg.cacheSize)
	} else {
		s.cache = serve.NewCache[*cachedResult](1)
	}
	if !cfg.noObs {
		s.obs = newServerObs(cfg.obsClock, cfg.accessW, cfg.accessEvery)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/commit", s.handleCommit)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.registerObsRoutes(mux)
	s.mux = mux
	s.registerMetrics()
	s.registerObsMetrics()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.obs != nil {
		s.serveObserved(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// now reads the server's clock: the injectable obs clock when
// observability is on, the wall clock otherwise.
func (s *Server) now() time.Time {
	if s.obs != nil {
		return s.obs.clock()
	}
	return time.Now()
}

// Close releases every epoch still pinned by a snapshot session. In-flight
// requests on those sessions finish against their pinned state; new
// epoch-pinned requests get 404.
func (s *Server) Close() {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.closed = true
	for epoch, sess := range s.snaps {
		if !sess.released {
			sess.released = true
			if sess.refs == 0 {
				sess.snap.Close()
			}
		}
		if sess.refs == 0 {
			delete(s.snaps, epoch)
		}
	}
}

// AdmissionStats snapshots the admission controller (also on /metrics as
// the serve_admission_* gauges).
func (s *Server) AdmissionStats() serve.AdmissionStats { return s.admit.Stats() }

// ResultCacheStats snapshots the result cache (also on /metrics as the
// serve_cache_* gauges).
func (s *Server) ResultCacheStats() serve.CacheStats { return s.cache.Stats() }

// registerMetrics adds the serve stats family to the engine's registry.
func (s *Server) registerMetrics() {
	reg := s.e.Metrics()
	ag := func(name string, f func(serve.AdmissionStats) int64) {
		reg.Gauge(name, func() int64 { return f(s.admit.Stats()) })
	}
	ag("serve_admission_admitted", func(st serve.AdmissionStats) int64 { return int64(st.Admitted) })
	ag("serve_admission_rejected", func(st serve.AdmissionStats) int64 { return int64(st.Rejected) })
	ag("serve_admission_queued", func(st serve.AdmissionStats) int64 { return int64(st.Queued) })
	ag("serve_admission_queue_timeouts", func(st serve.AdmissionStats) int64 { return int64(st.QueueTimeouts) })
	ag("serve_admission_waiting", func(st serve.AdmissionStats) int64 { return int64(st.Waiting) })
	ag("serve_admission_committed_bytes", func(st serve.AdmissionStats) int64 { return st.CommittedBytes })
	ag("serve_admission_capacity_bytes", func(st serve.AdmissionStats) int64 { return st.Capacity })
	cg := func(name string, f func(serve.CacheStats) int64) {
		reg.Gauge(name, func() int64 { return f(s.cache.Stats()) })
	}
	cg("serve_cache_hits", func(st serve.CacheStats) int64 { return int64(st.Hits) })
	cg("serve_cache_misses", func(st serve.CacheStats) int64 { return int64(st.Misses) })
	cg("serve_cache_invalidations", func(st serve.CacheStats) int64 { return int64(st.Invalidations) })
	cg("serve_cache_entries", func(st serve.CacheStats) int64 { return int64(st.Entries) })
	reg.Gauge("serve_requests", s.requests.Load)
	reg.Gauge("serve_errors", s.errors.Load)
}

// cachedResult is one query answer, encoded once: its row count (for the
// calibration telemetry) and the "rows", "attrs" and "tuples" members of
// the /query body, which every reply of the answer — miss or hit — writes
// unchanged between the per-request members (see replyResult).
type cachedResult struct {
	rows int
	body []byte
}

// handleQuery is the request lifecycle of ARCHITECTURE §11: resolve and
// pin the epoch, consult the result cache, pass admission with the plan's
// worst-case byte estimate, evaluate under the request deadline, release
// everything (deferred even on error paths).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	rs := obs.RequestFrom(ctx)
	qtext := r.FormValue("q")
	q, err := Parse(qtext)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "parse: %v", err)
		return
	}
	rs.SetQuery(qtext)
	traced := r.FormValue("trace") == "1"

	// Pin the epoch the request reads: a held snapshot session when
	// ?epoch=N names one, the live epoch otherwise.
	var (
		db      *Database
		epoch   uint64
		release func()
	)
	if es := r.FormValue("epoch"); es != "" {
		n, err := strconv.ParseUint(es, 10, 64)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, "epoch: %v", err)
			return
		}
		sess := s.acquireSession(n)
		if sess == nil {
			s.fail(w, r, http.StatusNotFound, "epoch %d is not pinned by a snapshot session", n)
			return
		}
		db, epoch, release = sess.snap.DB(), n, func() { s.releaseSession(n) }
	} else {
		snap := s.e.Snapshot()
		db, epoch, release = snap.DB(), snap.Epoch(), snap.Close
	}
	defer release()
	rs.SetEpoch(epoch)

	// Cache hits skip admission: a cached answer costs no evaluation
	// memory. Traced requests bypass the cache so their trace is real.
	if s.cacheOn && !traced {
		res, ok := s.cache.Get(qtext, epoch)
		if o := s.obs; o != nil {
			if ok {
				o.windows.CacheHits.Add(1)
			} else {
				o.windows.CacheMisses.Add(1)
			}
		}
		if ok {
			rs.MarkCached()
			rs.SetOutcome("cached")
			s.replyResult(w, qtext, epoch, res, true, "")
			return
		}
	}

	// Admission: reserve the paper's worst-case output size. With
	// observability on, one PlanInfo call against the cached plan also
	// yields the strategy name and the System-R output estimate the
	// calibration telemetry compares against actual rows.
	var (
		strategy string
		bound    float64
		estimate float64
	)
	if s.obs != nil {
		strategy, bound, estimate, err = s.e.PlanInfo(q, db)
	} else {
		bound, err = s.e.BoundRows(q, db)
	}
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "plan: %v", err)
		return
	}
	charge := estBytes(bound, q)
	rs.SetAdmission(bound, charge, charge > s.admit.Stats().Capacity)
	rs.SetState("queued", s.admit.Stats().Waiting)
	queuedAt := s.now()
	ticket, err := s.admit.Admit(ctx, charge)
	if o := s.obs; o != nil {
		o.windows.QueueWait.Observe(s.now().Sub(queuedAt).Nanoseconds())
	}
	rs.SetQueueWait(s.now().Sub(queuedAt).Nanoseconds())
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			s.fail(w, r, http.StatusTooManyRequests, "%v", err)
		default:
			s.fail(w, r, http.StatusServiceUnavailable, "admission wait: %v", err)
		}
		return
	}
	defer ticket.Release()
	if o := s.obs; o != nil {
		o.windows.Grants.Add(1)
	}
	rs.SetState("evaluating", 0)

	var (
		out *Relation
		tr  *Trace
	)
	if traced {
		out, _, tr, err = s.e.EvaluateTraced(ctx, q, db)
	} else {
		out, _, err = s.e.Evaluate(ctx, q, db)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, r, http.StatusServiceUnavailable, "evaluate: %v", err)
		case errors.Is(err, context.Canceled):
			// The client is gone; the status is for the access log only.
			s.fail(w, r, 499, "evaluate: %v", err)
		default:
			s.fail(w, r, http.StatusUnprocessableEntity, "evaluate: %v", err)
		}
		return
	}
	res := encodeResult(out, db.Dict())
	s.recordCalibration(strategy, shapeOf(q), bound, estimate, res.rows)
	if s.cacheOn && !traced {
		s.cache.Put(qtext, epoch, res)
	}
	rs.SetState("done", 0)
	rs.SetOutcome("ok")
	var trace string
	if tr != nil {
		trace = tr.Render()
	}
	s.replyResult(w, qtext, epoch, res, false, trace)
}

// estBytes converts a planner row bound to an admission reservation: one
// estBytesPerValue charge per output value. Infinite or overflowing
// estimates saturate (Admit clamps to capacity anyway).
func estBytes(rows float64, q *Query) int64 {
	width := len(q.Head.Vars)
	if width < 1 {
		width = 1
	}
	b := rows * float64(width) * estBytesPerValue
	if b >= float64(1<<62) {
		return 1 << 62
	}
	return int64(b)
}

// encodeResult encodes a result relation as the "rows", "attrs" and
// "tuples" members of a /query body, walking its columns and resolving
// values through the evaluated snapshot's dictionary (the output relation
// does not adopt one); the relation itself is not retained. Each distinct
// value is resolved and quoted once per answer, by encoding/json, so the
// bytes are exactly what encoding/json writes for the same []string rows.
func encodeResult(out *Relation, d *Dict) *cachedResult {
	rows := out.Size()
	cols := make([][]Value, out.Arity())
	for c := range cols {
		cols[c] = out.Column(c)
	}
	// Sized for short values — a quoted value and its comma in about 8
	// bytes, a row's brackets in 2; longer values grow the slice.
	b := append(make([]byte, 0, 64+rows*(2+8*len(cols))), `"rows":`...)
	b = strconv.AppendInt(b, int64(rows), 10)
	b = append(b, `,"attrs":[`...)
	for i, a := range out.Attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, jsonString(a)...)
	}
	b = append(b, `],"tuples":[`...)
	quoted := make(map[Value][]byte)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for c, col := range cols {
			if c > 0 {
				b = append(b, ',')
			}
			v := col[i]
			q, ok := quoted[v]
			if !ok {
				q = jsonString(d.String(v))
				quoted[v] = q
			}
			b = append(b, q...)
		}
		b = append(b, ']')
	}
	b = append(b, ']')
	return &cachedResult{rows: rows, body: b}
}

// jsonString is encoding/json's rendering of s: quoted, with HTML
// characters, U+2028/U+2029 and control bytes escaped and invalid UTF-8
// replaced.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// commitRequest is the /commit JSON body: a transaction as an ordered op
// list. Ops are applied in order inside one Txn; any failure aborts the
// whole batch.
type commitRequest struct {
	Ops []commitOp `json:"ops"`
}

type commitOp struct {
	// Op is one of "create", "append", "retract", "drop"... create needs
	// Attrs; append and retract need Rows.
	Op    string     `json:"op"`
	Rel   string     `json:"rel"`
	Attrs []string   `json:"attrs,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
}

// handleCommit applies one transaction and publishes the next epoch. The
// response carries the committed epoch; the result cache is swept for
// epochs no longer readable.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req commitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, r, http.StatusBadRequest, "decode: %v", err)
		return
	}
	tx := s.e.Begin()
	defer tx.Abort() // no-op after Commit
	for i, op := range req.Ops {
		var err error
		switch op.Op {
		case "create":
			err = tx.Create(op.Rel, op.Attrs...)
		case "append":
			for _, row := range op.Rows {
				if err = tx.Add(op.Rel, row...); err != nil {
					break
				}
			}
		case "retract":
			for _, row := range op.Rows {
				if err = tx.Remove(op.Rel, row...); err != nil {
					break
				}
			}
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, "op %d (%s %s): %v", i, op.Op, op.Rel, err)
			return
		}
	}
	epoch, err := tx.Commit()
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "commit: %v", err)
		return
	}
	s.sweepCache()
	s.reply(w, http.StatusOK, map[string]uint64{"epoch": epoch})
}

// handleExplain returns the plan for q over the live epoch as text: the
// strategy, atom order and rationale, plus the worst-case row bound the
// admission controller would charge.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, err := Parse(r.FormValue("q"))
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "parse: %v", err)
		return
	}
	snap := s.e.Snapshot()
	defer snap.Close()
	p, err := s.e.ExplainDB(q, snap.DB())
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "plan: %v", err)
		return
	}
	rows, err := s.e.BoundRows(q, snap.DB())
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "bound: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "epoch: %d\n%s\nworst-case rows: %g (admission charge %d bytes)\n",
		snap.Epoch(), p, rows, estBytes(rows, q))
}

// handleSnapshot pins (POST) or releases (DELETE) an epoch for the
// ?epoch=N query form. Pinning the same epoch twice shares one session.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.snapMu.Lock()
		if s.closed {
			s.snapMu.Unlock()
			s.fail(w, r, http.StatusServiceUnavailable, "server closed")
			return
		}
		snap := s.e.Snapshot()
		epoch := snap.Epoch()
		if sess, ok := s.snaps[epoch]; ok {
			sess.pins++
			snap.Close() // session already holds this epoch
		} else {
			s.snaps[epoch] = &snapSession{snap: snap, pins: 1}
		}
		s.snapMu.Unlock()
		s.reply(w, http.StatusOK, map[string]uint64{"epoch": epoch})
	case http.MethodDelete:
		n, err := strconv.ParseUint(r.FormValue("epoch"), 10, 64)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, "epoch: %v", err)
			return
		}
		s.snapMu.Lock()
		sess, ok := s.snaps[n]
		if ok && sess.released {
			ok = false
		}
		if ok {
			sess.pins--
			if sess.pins <= 0 {
				sess.released = true
				if sess.refs == 0 {
					sess.snap.Close()
					delete(s.snaps, n)
				}
			}
		}
		s.snapMu.Unlock()
		if !ok {
			s.fail(w, r, http.StatusNotFound, "epoch %d is not pinned", n)
			return
		}
		s.sweepCache()
		s.reply(w, http.StatusOK, map[string]uint64{"epoch": n})
	default:
		s.fail(w, r, http.StatusMethodNotAllowed, "POST or DELETE required")
	}
}

// acquireSession refcounts the session pinning epoch n, or returns nil.
func (s *Server) acquireSession(n uint64) *snapSession {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	sess, ok := s.snaps[n]
	if !ok || sess.released {
		return nil
	}
	sess.refs++
	return sess
}

// releaseSession undoes acquireSession, completing a deferred DELETE when
// the last in-flight reader leaves.
func (s *Server) releaseSession(n uint64) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	sess, ok := s.snaps[n]
	if !ok {
		return
	}
	sess.refs--
	if sess.released && sess.refs == 0 {
		sess.snap.Close()
		delete(s.snaps, n)
	}
}

// sweepCache drops result-cache entries for epochs that are neither live
// nor pinned by a snapshot session.
func (s *Server) sweepCache() {
	if !s.cacheOn {
		return
	}
	live := s.e.LiveEpoch()
	s.snapMu.Lock()
	pinned := make(map[uint64]bool, len(s.snaps))
	for e, sess := range s.snaps {
		if !sess.released {
			pinned[e] = true
		}
	}
	s.snapMu.Unlock()
	s.cache.Sweep(func(e uint64) bool { return e == live || pinned[e] })
}

// replyResult writes a /query answer: the per-request members (query,
// epoch, cached, trace) around the answer's encoded body, in the field
// order of the JSON object it is — {"query","epoch","rows","attrs",
// "tuples","cached"[,"trace"]} plus a trailing newline. Hits and misses
// take this one path. The body is written as it sits in the cache, never
// copied, so a hit allocates the same few bytes whatever the answer's size.
func (s *Server) replyResult(w http.ResponseWriter, query string, epoch uint64, res *cachedResult, cached bool, trace string) {
	// meta holds the members before the body, then those after it.
	meta := append([]byte(`{"query":`), jsonString(query)...)
	meta = append(meta, `,"epoch":`...)
	meta = strconv.AppendUint(meta, epoch, 10)
	meta = append(meta, ',')
	split := len(meta)
	meta = append(meta, `,"cached":`...)
	meta = strconv.AppendBool(meta, cached)
	if trace != "" {
		meta = append(meta, `,"trace":`...)
		meta = append(meta, jsonString(trace)...)
	}
	meta = append(meta, "}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(meta)+len(res.body)))
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(meta[:split])
	if err == nil {
		_, err = w.Write(res.body)
	}
	if err == nil {
		_, err = w.Write(meta[split:])
	}
	if err != nil {
		s.errors.Add(1)
	}
}

// reply writes v as a JSON response.
func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.errors.Add(1)
	}
}

// fail writes a JSON error body and counts it. The body carries the
// request's correlation ID when one is attached, so a client holding a
// 429 or 503 can quote the same ID the access log and traces recorded;
// the request's access-log outcome is derived from the status.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	s.errors.Add(1)
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	rs := obs.RequestFrom(r.Context())
	if id := rs.ID(); id != "" {
		body["request_id"] = id
	}
	rs.SetOutcome(outcomeForStatus(status))
	s.reply(w, status, body)
}

// outcomeForStatus maps an error status onto the access-log outcome
// vocabulary.
func outcomeForStatus(status int) string {
	switch status {
	case http.StatusTooManyRequests:
		return "shed"
	case http.StatusServiceUnavailable:
		return "timeout"
	case 499:
		return "canceled"
	default:
		return "error"
	}
}
