// End-to-end tests of the cqserve HTTP front-end (root package Server)
// driven through real HTTP connections: endpoint contracts, the
// (query, epoch) result cache lifecycle, resource release on client
// disconnect, and admission-control saturation. The engine-agnostic
// admission/cache units are tested separately in this package's internal
// tests; here everything goes over the wire.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	cqbound "cqbound"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

// testSrv bundles one engine behind one live HTTP server. Cleanup closes
// client, server, and engine in dependency order so the TestMain leak
// check sees no stragglers.
type testSrv struct {
	eng *cqbound.Engine
	srv *cqbound.Server
	ts  *httptest.Server
	c   *http.Client
}

func newTestSrv(t testing.TB, engOpts []cqbound.Option, srvOpts []cqbound.ServerOption) *testSrv {
	t.Helper()
	eng := cqbound.NewEngine(engOpts...)
	srv := cqbound.NewServer(eng, srvOpts...)
	ts := httptest.NewServer(srv)
	c := ts.Client()
	t.Cleanup(func() {
		c.CloseIdleConnections()
		ts.Close()
		srv.Close()
		eng.Close()
	})
	return &testSrv{eng: eng, srv: srv, ts: ts, c: c}
}

// op mirrors the /commit JSON op shape.
type op struct {
	Op    string     `json:"op"`
	Rel   string     `json:"rel"`
	Attrs []string   `json:"attrs,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
}

// commit applies ops over HTTP and returns the published epoch.
func (s *testSrv) commit(t testing.TB, ops []op) uint64 {
	t.Helper()
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.c.Post(s.ts.URL+"/commit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /commit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /commit: status %d: %s", resp.StatusCode, b)
	}
	var out map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["epoch"]
}

// queryResp mirrors the /query JSON response.
type queryResp struct {
	Query  string     `json:"query"`
	Epoch  uint64     `json:"epoch"`
	Rows   int        `json:"rows"`
	Attrs  []string   `json:"attrs"`
	Tuples [][]string `json:"tuples"`
	Cached bool       `json:"cached"`
	Trace  string     `json:"trace,omitempty"`
}

// query evaluates q over HTTP; epoch "" reads the live epoch. Non-200
// statuses return a nil response.
func (s *testSrv) query(t testing.TB, q, epoch string, trace bool) (*queryResp, int) {
	t.Helper()
	v := url.Values{"q": {q}}
	if epoch != "" {
		v.Set("epoch", epoch)
	}
	if trace {
		v.Set("trace", "1")
	}
	resp, err := s.c.Get(s.ts.URL + "/query?" + v.Encode())
	if err != nil {
		t.Fatalf("GET /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var out queryResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

// snapshot pins the live epoch via POST /snapshot.
func (s *testSrv) snapshot(t testing.TB) uint64 {
	t.Helper()
	resp, err := s.c.Post(s.ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["epoch"]
}

// releaseSnapshot releases a pinned epoch via DELETE /snapshot.
func (s *testSrv) releaseSnapshot(t testing.TB, epoch uint64) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete,
		s.ts.URL+"/snapshot?epoch="+strconv.FormatUint(epoch, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /snapshot?epoch=%d: status %d", epoch, resp.StatusCode)
	}
}

// tupleSet canonicalizes response tuples for set comparison.
func tupleSet(tuples [][]string) map[string]bool {
	set := make(map[string]bool, len(tuples))
	for _, tp := range tuples {
		set[strings.Join(tp, "\x00")] = true
	}
	return set
}

func sameTuples(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	sa := tupleSet(a)
	for _, tp := range b {
		if !sa[strings.Join(tp, "\x00")] {
			return false
		}
	}
	return true
}

func TestServeEndpoints(t *testing.T) {
	s := newTestSrv(t, nil, nil)
	s.commit(t, []op{
		{Op: "create", Rel: "E", Attrs: []string{"x", "y"}},
		{Op: "append", Rel: "E", Rows: [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}}},
	})

	path := "Q(X,Z) <- E(X,Y), E(Y,Z)."
	res, code := s.query(t, path, "", false)
	if code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	want := [][]string{{"a", "c"}, {"b", "d"}}
	if !sameTuples(res.Tuples, want) || res.Rows != 2 {
		t.Fatalf("query answer = %v (rows %d), want %v", res.Tuples, res.Rows, want)
	}
	if res.Cached {
		t.Fatal("first evaluation claims a cache hit")
	}
	if len(res.Attrs) != 2 {
		t.Fatalf("attrs = %v", res.Attrs)
	}

	// Traced request: same answer plus a rendered trace.
	tr, code := s.query(t, path, "", true)
	if code != http.StatusOK || !strings.HasPrefix(tr.Trace, "strategy:") {
		t.Fatalf("traced query: status %d, trace %q", code, tr.Trace)
	}
	if !sameTuples(tr.Tuples, want) {
		t.Fatalf("traced answer diverged: %v", tr.Tuples)
	}

	// Explain: plan text with the admission charge.
	resp, err := s.c.Get(s.ts.URL + "/explain?" + url.Values{"q": {path}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "strategy:") ||
		!strings.Contains(string(b), "admission charge") {
		t.Fatalf("explain: status %d body %q", resp.StatusCode, b)
	}

	// Metrics: the serve family rides on the engine registry.
	resp, err = s.c.Get(s.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, name := range []string{"serve_admission_admitted", "serve_cache_misses", "serve_requests", "query_latency_ns"} {
		if _, ok := metrics[name]; !ok {
			t.Fatalf("/metrics missing %s (have %d keys)", name, len(metrics))
		}
	}

	// Error contracts: bad query 400, unknown pinned epoch 404.
	if _, code := s.query(t, "not a query", "", false); code != http.StatusBadRequest {
		t.Fatalf("parse error status = %d, want 400", code)
	}
	if _, code := s.query(t, path, "99", false); code != http.StatusNotFound {
		t.Fatalf("unknown epoch status = %d, want 404", code)
	}
}

// TestQueryRepeatedHeadVariable: a head that lists a variable twice is a
// valid query, and /query answers it — arity 3, the tuples Naive computes —
// on a sharded engine, where the projection's sink runs on pool workers
// and a panic there used to end the process rather than the request.
func TestQueryRepeatedHeadVariable(t *testing.T) {
	s := newTestSrv(t, []cqbound.Option{cqbound.WithSharding(0, 4)}, nil)
	var rRows, sRows [][]string
	for i := 0; i < 40; i++ {
		rRows = append(rRows, []string{fmt.Sprintf("x%d", i%7), fmt.Sprintf("y%d", i%11)})
		sRows = append(sRows, []string{fmt.Sprintf("y%d", i%5), fmt.Sprintf("z%d", i)})
	}
	s.commit(t, []op{
		{Op: "create", Rel: "R", Attrs: []string{"a", "b"}},
		{Op: "create", Rel: "S", Attrs: []string{"a", "b"}},
		{Op: "append", Rel: "R", Rows: rRows},
		{Op: "append", Rel: "S", Rows: sRows},
	})
	snap := s.eng.Snapshot()
	defer snap.Close()
	for _, text := range []string{"Q(X,X,Y) <- R(X,Y).", "Q(X,X,Y) <- R(X,Y), S(Y,Z)."} {
		naive, _, err := eval.NaiveCtx(context.Background(), cqbound.MustParse(text), snap.DB())
		if err != nil {
			t.Fatal(err)
		}
		var want [][]string
		naive.Each(func(tp relation.Tuple) bool {
			want = append(want, tp.StringsIn(naive.Dict()))
			return true
		})
		res, code := s.query(t, text, "", false)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", text, code)
		}
		if len(res.Attrs) != 3 || len(want) == 0 || !sameTuples(res.Tuples, want) {
			t.Fatalf("%s: attrs %v with %d tuples, naive has %d", text, res.Attrs, len(res.Tuples), len(want))
		}
		for _, tp := range res.Tuples {
			if len(tp) != 3 || tp[0] != tp[1] {
				t.Fatalf("%s: tuple %v does not repeat its first column", text, tp)
			}
		}
	}
}

// TestResultCacheLifecycle is the satellite-3 contract: repeats on one
// (query, epoch) hit, a Commit moves the live epoch so the next live read
// misses and recomputes, and a reader holding a pinned snapshot keeps
// getting the stale epoch's answer — from the cache, whose pinned entries
// survive the post-commit sweep — never the new one.
func TestResultCacheLifecycle(t *testing.T) {
	s := newTestSrv(t, nil, nil)
	s.commit(t, []op{
		{Op: "create", Rel: "E", Attrs: []string{"x", "y"}},
		{Op: "append", Rel: "E", Rows: [][]string{{"a", "b"}, {"b", "c"}}},
	})
	path := "Q(X,Z) <- E(X,Y), E(Y,Z)."

	first, _ := s.query(t, path, "", false)
	if first.Cached {
		t.Fatal("cold read claims a cache hit")
	}
	again, _ := s.query(t, path, "", false)
	if !again.Cached || !sameTuples(again.Tuples, first.Tuples) {
		t.Fatalf("repeat read: cached=%v tuples=%v, want hit with %v",
			again.Cached, again.Tuples, first.Tuples)
	}
	if st := s.srv.ResultCacheStats(); st.Hits < 1 {
		t.Fatalf("cache stats after repeat: %+v", st)
	}

	// Pin the current epoch, then advance it.
	pinned := s.snapshot(t)
	if pinned != first.Epoch {
		t.Fatalf("snapshot pinned epoch %d, queries read %d", pinned, first.Epoch)
	}
	s.commit(t, []op{{Op: "append", Rel: "E", Rows: [][]string{{"c", "d"}}}})

	// Live read: new epoch, cache miss, new answer.
	live, _ := s.query(t, path, "", false)
	if live.Epoch == pinned || live.Cached {
		t.Fatalf("post-commit live read: epoch %d cached=%v", live.Epoch, live.Cached)
	}
	if sameTuples(live.Tuples, first.Tuples) {
		t.Fatal("live answer did not change after commit")
	}

	// Pinned read: stale epoch's answer, still served (and still cached —
	// the sweep must not have dropped a pinned epoch's entries).
	stale, code := s.query(t, path, strconv.FormatUint(pinned, 10), false)
	if code != http.StatusOK {
		t.Fatalf("pinned read status %d", code)
	}
	if stale.Epoch != pinned || !sameTuples(stale.Tuples, first.Tuples) {
		t.Fatalf("pinned read: epoch %d tuples %v, want epoch %d tuples %v",
			stale.Epoch, stale.Tuples, pinned, first.Tuples)
	}
	if !stale.Cached {
		t.Fatal("pinned epoch's cache entries were swept while the snapshot was held")
	}

	// Releasing the pin makes the old epoch unreadable; the sweep drops it.
	inv := s.srv.ResultCacheStats().Invalidations
	s.releaseSnapshot(t, pinned)
	if st := s.srv.ResultCacheStats(); st.Invalidations <= inv {
		t.Fatalf("no invalidations after releasing epoch %d: %+v", pinned, st)
	}
	if _, code := s.query(t, path, strconv.FormatUint(pinned, 10), false); code != http.StatusNotFound {
		t.Fatalf("released epoch still served: status %d", code)
	}
}

// TestCancelReleasesResources is the satellite-2 contract: client
// disconnects and deadline expiries mid-evaluation must unwind completely
// — the evaluation's spill scope discarded (RegisteredBuffers and
// BytesOnDisk back to baseline), every epoch pin released, goroutines
// gone (the package TestMain enforces that part).
func TestCancelReleasesResources(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newTestSrv(t,
		[]cqbound.Option{
			cqbound.WithSharding(0, 3),
			cqbound.WithMemoryBudget(256),
			cqbound.WithSpillDir(t.TempDir()),
		},
		[]cqbound.ServerOption{cqbound.WithResultCache(0)},
	)
	db := datagen.EdgeDB(rng, []string{"E", "F", "G"}, 600, 40)
	ops := []op{}
	for _, name := range db.Names() {
		r := db.Relation(name)
		rows := [][]string{}
		r.Each(func(tp cqbound.Tuple) bool {
			rows = append(rows, tp.Strings())
			return true
		})
		ops = append(ops, op{Op: "create", Rel: name, Attrs: r.Attrs},
			op{Op: "append", Rel: name, Rows: rows})
	}
	s.commit(t, ops)
	tri := "Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X)."

	// Baseline: one evaluation run to completion settles the base
	// partitions' registrations and segments.
	if _, code := s.query(t, tri, "", false); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}
	base := s.eng.SpillStats()

	// Now the same query with deadlines that expire mid-evaluation. The
	// client walking away cancels the request context; the handler's
	// evaluation aborts wherever it is. Some may still finish — what
	// matters is that none of them leaks.
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			s.ts.URL+"/query?"+url.Values{"q": {tri}}.Encode(), nil)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		resp, err := s.c.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
	}

	// Everything must drain back to the baseline: in-flight handlers
	// finish unwinding, scopes discard their intermediates, pins release.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.eng.SpillStats()
		ep := s.eng.EpochStats()
		if st.RegisteredBuffers == base.RegisteredBuffers &&
			st.BytesOnDisk == base.BytesOnDisk && ep.PinnedReaders == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resources not released after cancellations: buffers %d (baseline %d), on-disk %d (baseline %d), pinned readers %d",
				st.RegisteredBuffers, base.RegisteredBuffers, st.BytesOnDisk, base.BytesOnDisk, ep.PinnedReaders)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := s.srv.AdmissionStats(); st.CommittedBytes != 0 {
		t.Fatalf("admission budget not returned: %+v", st)
	}
}

// TestAdmissionSaturation is the satellite-4 contract: flooding the
// server with bound-heavy queries at a tiny budget must shed load at the
// door (429s and queueing), keep the governor's resident peak at or under
// the budget, and still answer every admitted query correctly.
func TestAdmissionSaturation(t *testing.T) {
	const capBytes = 64 << 10
	rng := rand.New(rand.NewSource(11))
	s := newTestSrv(t,
		[]cqbound.Option{
			cqbound.WithSharding(0, 2),
			cqbound.WithMemoryBudget(capBytes),
			cqbound.WithSpillDir(t.TempDir()),
		},
		[]cqbound.ServerOption{
			cqbound.WithResultCache(0), // every request must face admission
			cqbound.WithAdmissionQueue(4),
		},
	)
	db := datagen.EdgeDB(rng, []string{"E", "F", "G"}, 300, 30)
	ops := []op{}
	for _, name := range db.Names() {
		r := db.Relation(name)
		rows := [][]string{}
		r.Each(func(tp cqbound.Tuple) bool {
			rows = append(rows, tp.Strings())
			return true
		})
		ops = append(ops, op{Op: "create", Rel: name, Attrs: r.Attrs},
			op{Op: "append", Rel: name, Rows: rows})
	}
	s.commit(t, ops)

	// The triangle's AGM bound (rmax^{3/2} rows, 3 values each) exceeds
	// the whole 64 KiB budget, so Admit clamps it to capacity: admitted
	// queries serialize, everything else queues (depth 4) or is rejected.
	tri := "Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X)."
	want, _ := s.query(t, tri, "", false)
	if want == nil {
		t.Fatal("reference evaluation failed")
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok200    int
		rejected int
		other    []string
	)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				res, code := s.query(t, tri, "", false)
				mu.Lock()
				switch code {
				case http.StatusOK:
					ok200++
					if !sameTuples(res.Tuples, want.Tuples) {
						other = append(other, fmt.Sprintf("admitted query returned %d tuples, want %d",
							len(res.Tuples), len(want.Tuples)))
					}
				case http.StatusTooManyRequests:
					rejected++
				default:
					other = append(other, fmt.Sprintf("status %d", code))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(other) > 0 {
		t.Fatalf("unexpected outcomes under saturation: %v", other)
	}
	if ok200 == 0 {
		t.Fatal("no queries admitted under saturation")
	}
	if rejected == 0 {
		t.Fatal("flood produced no 429s: admission did not saturate")
	}
	st := s.srv.AdmissionStats()
	if st.Rejected == 0 || st.Queued == 0 {
		t.Fatalf("admission stats show no shedding: %+v", st)
	}
	if st.CommittedBytes != 0 || st.Waiting != 0 {
		t.Fatalf("admission did not drain: %+v", st)
	}
	if peak := s.eng.SpillStats().PeakResidentBytes; peak > capBytes {
		t.Fatalf("governor peak %d exceeded the %d budget: admission failed to prevent thrash", peak, capBytes)
	}
}
