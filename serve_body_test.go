package cqbound

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
)

// legacyQueryResponse is the /query body as the server once built it: a
// struct of []string rows handed to encoding/json. The encoded-once reply
// must write exactly the bytes json.NewEncoder writes for it.
type legacyQueryResponse struct {
	Query  string     `json:"query"`
	Epoch  uint64     `json:"epoch"`
	Rows   int        `json:"rows"`
	Attrs  []string   `json:"attrs"`
	Tuples [][]string `json:"tuples"`
	Cached bool       `json:"cached"`
	Trace  string     `json:"trace,omitempty"`
}

// legacyBody encodes out the old way: one []string per row, resolved
// through d, then encoding/json over the whole response.
func legacyBody(t *testing.T, query string, epoch uint64, out *Relation, d *Dict, cached bool, trace string) []byte {
	t.Helper()
	resp := &legacyQueryResponse{
		Query: query, Epoch: epoch, Rows: out.Size(),
		Attrs: append([]string(nil), out.Attrs...), Tuples: [][]string{},
		Cached: cached, Trace: trace,
	}
	out.Each(func(tu Tuple) bool {
		resp.Tuples = append(resp.Tuples, tu.StringsIn(d))
		return true
	})
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryBodyMatchesEncodingJSON pins the /query wire format: the body
// replyResult writes around encodeResult's bytes equals encoding/json's
// rendering of the response struct, byte for byte — field order, HTML and
// control-byte escaping, invalid UTF-8 replacement, trailing newline — for
// misses, hits and traced replies, an empty answer, a repeated head
// variable, and values only the Go API can store.
func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	srv := NewServer(eng)
	defer srv.Close()
	odd := []string{
		`say "hi"`, `back\slash`, "<&>", "ctl\x00\x01\x1f\t\n\r\b\f", "line\u2028sep\u2029",
		"naïve ☃ 日本", "bad\xff\xfeutf8", "", "plain",
	}
	tx := eng.Begin()
	for _, rel := range []string{"R", "S"} {
		if err := tx.Create(rel, "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Create("Empty", "a"); err != nil {
		t.Fatal(err)
	}
	for i, v := range odd {
		if err := tx.Add("R", v, odd[(i+1)%len(odd)]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Add("S", odd[(i+1)%len(odd)], "<s>"+v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	defer snap.Close()
	db, epoch := snap.DB(), snap.Epoch()

	for _, tc := range []struct{ name, query string }{
		{"odd values", `Q(X,Y) <- R(X,Y).`},
		{"join", `Q(X,Z) <- R(X,Y), S(Y,Z).`},
		{"repeated head variable", `Q(X,X,Y) <- R(X,Y).`},
		{"empty answer", `Q(X) <- Empty(X).`},
		{"html in query text", `Q(X) <- R(X,Y), S(Y,Z). % <&> "`},
	} {
		q, err := Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out, _, tr, err := eng.EvaluateTraced(context.Background(), q, db)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res := encodeResult(out, db.Dict())
		if res.rows != out.Size() {
			t.Errorf("%s: rows = %d, want %d", tc.name, res.rows, out.Size())
		}
		for _, r := range []struct {
			kind   string
			cached bool
			trace  string
		}{{"miss", false, ""}, {"hit", true, ""}, {"traced", false, tr.Render()}} {
			rec := httptest.NewRecorder()
			srv.replyResult(rec, tc.query, epoch, res, r.cached, r.trace)
			want := legacyBody(t, tc.query, epoch, out, db.Dict(), r.cached, r.trace)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s %s:\n got %q\nwant %q", tc.name, r.kind, got, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
				t.Errorf("%s %s: Content-Length %s, body %d bytes", tc.name, r.kind, cl, len(want))
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so allocation counts see the handler alone.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// cubeClient sends one fixed /query to a server over a unary relation A of
// n values: the cube query Q(X,Y,Z) <- A(X), A(Y), A(Z). answers n³ rows
// over n distinct values.
type cubeClient struct {
	srv *Server
	req *http.Request
	w   *discardWriter
}

func newCubeClient(tb testing.TB, n int, opts ...ServerOption) *cubeClient {
	tb.Helper()
	eng := NewEngine()
	srv := NewServer(eng, opts...)
	tb.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	tx := eng.Begin()
	if err := tx.Create("A", "a"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tx.Add("A", fmt.Sprintf("v%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return &cubeClient{
		srv: srv,
		req: httptest.NewRequest(http.MethodGet,
			"/query?q="+url.QueryEscape("Q(X,Y,Z) <- A(X), A(Y), A(Z)."), nil),
		w: &discardWriter{h: make(http.Header)},
	}
}

func (c *cubeClient) serve() {
	clear(c.w.h)
	c.w.status = 0
	c.srv.ServeHTTP(c.w, c.req)
}

// serveOK sends the query and fails unless it was answered with 200.
func (c *cubeClient) serveOK(tb testing.TB) {
	tb.Helper()
	c.serve()
	if c.w.status != http.StatusOK {
		tb.Fatalf("/query answered %d", c.w.status)
	}
}

// TestQueryMissAllocsIndependentOfRows: encoding an answer costs a fixed
// number of allocations, not one or more per row. A miss on the cube
// query at |A| = 10 and 25 (1 000 vs 15 625 rows) may differ by at most
// 128 allocations; resolving every row into a []string made ~14 700.
func TestQueryMissAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		c := newCubeClient(t, n, WithResultCache(0))
		c.serveOK(t)
		return testing.AllocsPerRun(5, c.serve)
	}
	small, large := allocs(10), allocs(25)
	if large-small > 128 {
		t.Errorf("miss allocations grow with the answer: %.0f at 1 000 rows, %.0f at 15 625", small, large)
	}
}

// TestQueryHitBytesIndependentOfRows: a cache hit writes the cached body
// as is, so the bytes it allocates do not depend on the answer's size.
func TestQueryHitBytesIndependentOfRows(t *testing.T) {
	perHit := func(n int) uint64 {
		c := newCubeClient(t, n)
		c.serveOK(t) // the miss that fills the cache
		const runs = 200
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.serve()
		}
		runtime.ReadMemStats(&after)
		if st := c.srv.ResultCacheStats(); st.Hits != runs {
			t.Fatalf("|A| = %d: %d cache hits, want %d", n, st.Hits, runs)
		}
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := perHit(10), perHit(25)
	if large > small+1024 {
		t.Errorf("hit bytes grow with the answer: %d B/op at 1 000 rows, %d at 15 625", small, large)
	}
}

// BenchmarkServeQuery measures one /query through the handler on the cube
// query at |A| = 25 (15 625 rows): a miss (cache off, so every request
// evaluates and encodes) and a hit (the encoded body written from cache).
func BenchmarkServeQuery(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts []ServerOption
	}{
		{"miss", []ServerOption{WithResultCache(0)}},
		{"hit", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := newCubeClient(b, 25, bc.opts...)
			c.serveOK(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.serve()
			}
			b.StopTimer()
			c.serveOK(b)
		})
	}
}
