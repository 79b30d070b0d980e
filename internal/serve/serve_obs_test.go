// End-to-end tests of the serving-path observability layer
// (ARCHITECTURE §12) over real HTTP: request-ID correlation across the
// access log, slow-query log, rendered trace and error bodies; the
// introspection endpoints; the Prometheus exposition; the queue-wait
// Retry-After hint on 429s; and the serve counters' reset contract.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	cqbound "cqbound"
	"cqbound/internal/datagen"
	"cqbound/internal/metrics"
	"cqbound/internal/obs"
)

// histCount reads a registry histogram's observation count.
func histCount(t *testing.T, s *testSrv, name string) int64 {
	t.Helper()
	h, ok := s.eng.MetricsSnapshot()[name].(metrics.HistogramSnapshot)
	if !ok {
		t.Fatalf("registry has no histogram %q", name)
	}
	return h.Count
}

// syncBuf is a mutex-guarded buffer: the access log and slow-query log
// write from request goroutines while the test reads.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitContains polls buf for substr — the access-log line lands just
// after the response reaches the client, so the first read can race it.
func waitContains(t *testing.T, buf *syncBuf, substr, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(buf.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never mentioned %q; contents:\n%s", what, substr, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// accessLine waits for the access-log line of request id and decodes it:
// every line is one obs.Request record.
func accessLine(t *testing.T, buf *syncBuf, id string) obs.Request {
	t.Helper()
	waitContains(t, buf, `"request_id":"`+id+`"`, "access log")
	for _, line := range strings.Split(buf.String(), "\n") {
		var r obs.Request
		if json.Unmarshal([]byte(line), &r) == nil && r.RequestID == id {
			return r
		}
	}
	t.Fatalf("no access-log line decodes for %s:\n%s", id, buf.String())
	return obs.Request{}
}

// loadTriangle commits the three-edge cycle used across these tests.
func loadTriangle(t *testing.T, s *testSrv) {
	t.Helper()
	s.commit(t, []op{
		{Op: "create", Rel: "E", Attrs: []string{"x", "y"}},
		{Op: "append", Rel: "E", Rows: [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}},
		{Op: "create", Rel: "F", Attrs: []string{"x", "y"}},
		{Op: "append", Rel: "F", Rows: [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}},
		{Op: "create", Rel: "G", Attrs: []string{"x", "y"}},
		{Op: "append", Rel: "G", Rows: [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}},
	})
}

// TestRequestIDCorrelation drives one query carrying a client-supplied
// X-Request-ID end to end and checks the same ID surfaces everywhere the
// layer promises: the echoed response header, the rendered trace, the
// slow-query record, the sampled access log, and error bodies. Each access
// line is the request's obs.Request record in its final state: a miss
// done with its bound, a hit done and cached, a parse error still
// received.
func TestRequestIDCorrelation(t *testing.T) {
	const id = "corr-7f3a"
	var accessLog, slowLog syncBuf
	s := newTestSrv(t,
		[]cqbound.Option{
			cqbound.WithTracing(),
			cqbound.WithTraceSink(cqbound.NewSlowQueryLog(&slowLog, 0)),
		},
		[]cqbound.ServerOption{cqbound.WithAccessLog(&accessLog, 1)},
	)
	loadTriangle(t, s)

	v := url.Values{"q": {"Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X)."}, "trace": {"1"}}
	req, err := http.NewRequest(http.MethodGet, s.ts.URL+"/query?"+v.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderRequestID, id)
	resp, err := s.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.HeaderRequestID); got != id {
		t.Fatalf("response %s = %q, want %q", obs.HeaderRequestID, got, id)
	}
	var qr queryResp
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qr.Trace, "request: "+id) {
		t.Fatalf("rendered trace does not carry the request ID:\n%s", qr.Trace)
	}
	waitContains(t, &slowLog, `"request_id":"`+id+`"`, "slow-query log")
	if r := accessLine(t, &accessLog, id); r.State != "done" || r.Outcome != "ok" || r.Cached ||
		r.BoundRows <= 0 || r.Charge <= 0 || r.Status != http.StatusOK || r.Bytes == 0 ||
		r.ElapsedNs <= 0 || r.Query != v.Get("q") || r.Path != "/query" {
		t.Fatalf("miss access line = %+v", r)
	}

	// Error bodies carry the ID too: a parse failure is a deterministic 400.
	req, err = http.NewRequest(http.MethodGet, s.ts.URL+"/query?q=not+a+query", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderRequestID, id+"-bad")
	resp, err = s.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status %d", resp.StatusCode)
	}
	var errBody struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil {
		t.Fatalf("error body not JSON: %v (%s)", err, body)
	}
	if errBody.RequestID != id+"-bad" {
		t.Fatalf("error body request_id = %q, want %q", errBody.RequestID, id+"-bad")
	}
	if r := accessLine(t, &accessLog, id+"-bad"); r.State != "received" || r.Outcome != "error" || r.Status != http.StatusBadRequest {
		t.Fatalf("parse-error access line = %+v", r)
	}

	// Without a client ID the server mints one; the repeat is a cache hit.
	edges := s.ts.URL + "/query?" + url.Values{"q": {"Q(X,Y) <- E(X,Y)."}}.Encode()
	var ids []string
	for range 2 {
		resp, err = s.c.Get(edges)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ids = append(ids, resp.Header.Get(obs.HeaderRequestID))
	}
	if ids[0] == "" || ids[1] == "" || ids[0] == ids[1] {
		t.Fatalf("server minted request IDs %q", ids)
	}
	if r := accessLine(t, &accessLog, ids[0]); r.State != "done" || r.Outcome != "ok" || r.Cached {
		t.Fatalf("miss access line = %+v", r)
	}
	if r := accessLine(t, &accessLog, ids[1]); r.State != "done" || r.Outcome != "cached" || !r.Cached || r.Epoch == 0 {
		t.Fatalf("hit access line = %+v", r)
	}
}

// TestObsEndpointsSmoke is the CI smoke contract: the probe, profiling,
// introspection and exposition endpoints all answer 200 in-process, and
// the Prometheus body passes the shared validity checker.
func TestObsEndpointsSmoke(t *testing.T) {
	s := newTestSrv(t, nil, nil)
	loadTriangle(t, s)
	if _, code := s.query(t, "Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X).", "", false); code != http.StatusOK {
		t.Fatalf("warmup query status %d", code)
	}

	for _, path := range []string{
		"/healthz",
		"/readyz",
		"/debug/requests",
		"/calibration",
		"/debug/pprof/profile?seconds=1",
		"/metrics",
		"/metrics?format=prom",
	} {
		resp, err := s.c.Get(s.ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		switch path {
		case "/metrics?format=prom":
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
				t.Fatalf("prom Content-Type = %q", ct)
			}
			obs.CheckPromText(t, string(body))
			for _, want := range []string{
				"serve_latency_ns_bucket", "serve_queue_wait_ns_count",
				"serve_inflight", "calibration_bound_log2_error",
			} {
				if !strings.Contains(string(body), want) {
					t.Errorf("prom exposition missing family %s", want)
				}
			}
		case "/metrics":
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatalf("/metrics JSON: %v", err)
			}
			if _, ok := m["calibration_records"]; !ok {
				t.Error("/metrics JSON missing calibration_records")
			}
		case "/debug/requests":
			// The listing request is in flight while it lists.
			var d struct {
				Inflight int           `json:"inflight"`
				Requests []obs.Request `json:"requests"`
			}
			if err := json.Unmarshal(body, &d); err != nil {
				t.Fatalf("/debug/requests JSON: %v", err)
			}
			if d.Inflight != 1 || len(d.Requests) != 1 {
				t.Fatalf("/debug/requests = %s, want itself alone", body)
			}
			if r := d.Requests[0]; r.Path != "/debug/requests" || r.State != "received" ||
				r.RequestID != resp.Header.Get(obs.HeaderRequestID) || r.Time.IsZero() || r.ElapsedNs < 0 {
				t.Fatalf("/debug/requests row = %+v", r)
			}
		case "/calibration":
			var c struct {
				Records int64            `json:"records"`
				Cells   []map[string]any `json:"cells"`
			}
			if err := json.Unmarshal(body, &c); err != nil {
				t.Fatalf("/calibration JSON: %v", err)
			}
			if c.Records == 0 || len(c.Cells) == 0 {
				t.Fatalf("calibration empty after a query: %s", body)
			}
		}
	}
}

// TestWithoutObservability checks the off switch: no correlation header,
// no /debug or /calibration routes and no serve latency or queue-wait
// histograms, but probes and /metrics still work.
func TestWithoutObservability(t *testing.T) {
	s := newTestSrv(t, nil, []cqbound.ServerOption{cqbound.WithoutObservability()})
	loadTriangle(t, s)

	resp, err := s.c.Get(s.ts.URL + "/query?" + url.Values{"q": {"Q(X,Y) <- E(X,Y)."}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.HeaderRequestID); got != "" {
		t.Fatalf("obs-off server set %s = %q", obs.HeaderRequestID, got)
	}
	for path, want := range map[string]int{
		"/healthz":        http.StatusOK,
		"/readyz":         http.StatusOK,
		"/metrics":        http.StatusOK,
		"/debug/requests": http.StatusNotFound,
		"/calibration":    http.StatusNotFound,
		"/debug/pprof/":   http.StatusNotFound,
	} {
		resp, err := s.c.Get(s.ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	snap := s.eng.MetricsSnapshot()
	for _, name := range []string{
		"serve_inflight", "serve_access_logged", "calibration_records",
		"serve_latency_ns", "serve_queue_wait_ns",
	} {
		if _, ok := snap[name]; ok {
			t.Errorf("obs-off registry has %s", name)
		}
	}
}

// TestRetryAfterHint floods a tiny admission budget and checks every 429
// carries the queue-wait Retry-After hint in [1, 30] seconds and a
// correlated JSON body, and that its access line records a request shed
// while queued.
func TestRetryAfterHint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var accessLog syncBuf
	s := newTestSrv(t,
		[]cqbound.Option{cqbound.WithSharding(0, 2)},
		[]cqbound.ServerOption{
			cqbound.WithResultCache(0),
			cqbound.WithAdmissionBudget(64 << 10),
			cqbound.WithAdmissionQueue(2),
			cqbound.WithAccessLog(&accessLog, 1),
		},
	)
	db := datagen.EdgeDB(rng, []string{"E", "F", "G"}, 300, 30)
	ops := []op{}
	for _, name := range db.Names() {
		r := db.Relation(name)
		rows := make([][]string, 0, r.Size())
		r.Each(func(tp cqbound.Tuple) bool {
			rows = append(rows, tp.Strings())
			return true
		})
		ops = append(ops, op{Op: "create", Rel: name, Attrs: r.Attrs},
			op{Op: "append", Rel: name, Rows: rows})
	}
	s.commit(t, ops)

	tri := url.Values{"q": {"Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X)."}}.Encode()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		shedIDs []string
		bad     []string
	)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				resp, err := s.c.Get(s.ts.URL + "/query?" + tri)
				if err != nil {
					mu.Lock()
					bad = append(bad, err.Error())
					mu.Unlock()
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusTooManyRequests {
					continue
				}
				mu.Lock()
				shedIDs = append(shedIDs, resp.Header.Get(obs.HeaderRequestID))
				ra := resp.Header.Get("Retry-After")
				if n, err := strconv.Atoi(ra); err != nil || n < 1 || n > 30 {
					bad = append(bad, fmt.Sprintf("Retry-After = %q", ra))
				}
				if !bytes.Contains(body, []byte(`"request_id"`)) {
					bad = append(bad, fmt.Sprintf("429 body without request_id: %s", body))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("bad 429 responses: %v", bad)
	}
	if len(shedIDs) == 0 {
		t.Skip("flood produced no 429s on this machine; hint contract unexercised")
	}
	if s.metric(t, "serve_shed") == 0 {
		t.Fatalf("serve_shed = 0 after %d rejections", len(shedIDs))
	}
	for _, id := range shedIDs {
		if r := accessLine(t, &accessLog, id); r.State != "queued" || r.Outcome != "shed" ||
			r.Status != http.StatusTooManyRequests || r.BoundRows <= 0 {
			t.Fatalf("429 access line = %+v", r)
		}
	}
}

// TestObsStatsReset is the serving path's reset contract: after traffic
// the serve and calibration counters are live, the latency histogram
// has seen every request and the queue-wait histogram every grant, and
// Engine.ResetStats zeroes every counter while the gauges (in-flight
// depth, the calibration cell count) and the histograms keep their
// values. The walk is over the registry, so a serve counter added later
// is covered without editing this test.
func TestObsStatsReset(t *testing.T) {
	var accessLog syncBuf
	s := newTestSrv(t, nil, []cqbound.ServerOption{cqbound.WithAccessLog(&accessLog, 2)})
	loadTriangle(t, s)

	queries := []string{
		"Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X).",
		"Q(X,Y) <- E(X,Y).",
		"Q(X,Z) <- E(X,Y), F(Y,Z).",
		"Q(X,Y) <- E(X,Y).", // repeat: cache hit
	}
	for _, q := range queries {
		if _, code := s.query(t, q, "", false); code != http.StatusOK {
			t.Fatalf("query %q status %d", q, code)
		}
	}
	// The serve counters a reset has always zeroed.
	resettable := []string{
		"serve_requests", "serve_shed", "serve_clamped", "serve_grants",
		"serve_cache_hits", "serve_cache_misses", "calibration_records",
		"serve_access_logged", "serve_access_dropped",
	}
	for _, name := range []string{
		"serve_requests", "serve_grants", "serve_cache_hits", "serve_cache_misses",
		"calibration_records", "serve_access_logged",
	} {
		if s.metric(t, name) == 0 {
			t.Fatalf("%s = 0 after traffic", name)
		}
	}
	// The latency is observed after the response is written, so the
	// client can read its answer before the last observation lands.
	deadline := time.Now().Add(2 * time.Second)
	for histCount(t, s, "serve_latency_ns") != s.metric(t, "serve_requests") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if lat, reqs := histCount(t, s, "serve_latency_ns"), s.metric(t, "serve_requests"); lat != reqs {
		t.Fatalf("serve_latency_ns.count = %d, serve_requests = %d", lat, reqs)
	}
	if qw, grants := histCount(t, s, "serve_queue_wait_ns"), s.metric(t, "serve_grants"); qw != grants {
		t.Fatalf("serve_queue_wait_ns.count = %d, serve_grants = %d", qw, grants)
	}

	before := s.eng.MetricsSnapshot()
	s.eng.ResetStats()
	after := s.eng.MetricsSnapshot()
	kinds := map[string]metrics.Kind{}
	for _, e := range s.eng.Metrics().Entries() {
		if !strings.HasPrefix(e.Name, "serve_") && !strings.HasPrefix(e.Name, "calibration_") {
			continue
		}
		kinds[e.Name] = e.Kind
		switch e.Kind {
		case metrics.KindCounter:
			if after[e.Name] != int64(0) {
				t.Errorf("%s = %v after ResetStats, want 0", e.Name, after[e.Name])
			}
		case metrics.KindGauge, metrics.KindHistogram:
			if after[e.Name] != before[e.Name] {
				t.Errorf("%s %s changed on ResetStats: %v -> %v", e.Kind, e.Name, before[e.Name], after[e.Name])
			}
		}
	}
	for _, name := range resettable {
		if k, ok := kinds[name]; !ok || k != metrics.KindCounter {
			t.Errorf("%s is not a registry counter (kind %v, present %v)", name, k, ok)
		}
	}
}
