package cqbound

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// triangleDB builds an E relation dense enough to exercise multi-batch
// pipelines on the triangle query.
func triangleDB(n, deg int) *Database {
	db := NewDatabase()
	e := NewRelation("E", "1", "2")
	for i := 0; i < n; i++ {
		for j := 1; j <= deg; j++ {
			e.Add(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+j)%n))
		}
	}
	db.MustAdd(e)
	return db
}

func pathDB(n int) *Database {
	db := NewDatabase()
	for _, name := range []string{"R", "S", "T"} {
		r := NewRelation(name, "1", "2")
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", (i+1)%n))
		}
		db.MustAdd(r)
	}
	return db
}

func TestEvaluateTracedMatchesUntraced(t *testing.T) {
	for _, text := range []string{
		"Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).", // cyclic: project-early
		"Q(A,D) <- R(A,B), S(B,C), T(C,D).",   // acyclic: yannakakis
	} {
		q := MustParse(text)
		db := triangleDB(40, 6)
		if q.Body[0].Relation == "R" {
			db = pathDB(50)
		}
		eng := NewEngine()
		plain, _, err := eng.Evaluate(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		traced, _, tr, err := eng.EvaluateTraced(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !RelationsEqual(plain, traced) {
			t.Fatalf("%s: traced output differs from untraced", text)
		}
		if tr == nil || tr.SpanCount() < 4 {
			t.Fatalf("%s: span count = %d, want a real tree", text, tr.SpanCount())
		}
		if tr.Root.RowsOut() != int64(plain.Size()) {
			t.Fatalf("%s: root rows out = %d, want %d", text, tr.Root.RowsOut(), plain.Size())
		}
		if _, ok := tr.Root.Est(); !ok {
			t.Fatalf("%s: root span missing the paper bound estimate", text)
		}
	}
}

// TestExplainAnalyzeTriangle is the acceptance check: the rendered plan
// for the triangle query must carry per-operator actual row counts next
// to size estimates, the paper's worst-case bound, and the stats deltas.
func TestExplainAnalyzeTriangle(t *testing.T) {
	eng := NewEngine()
	q := MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).")
	out, err := eng.ExplainAnalyze(context.Background(), q, triangleDB(30, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "strategy: project-early\n") {
		t.Fatalf("first line not deterministic:\n%s", out)
	}
	for _, want := range []string{
		"rmax^C",    // the paper bound annotated on the root
		"est=",      // per-operator estimates
		"rows",      // actual row counts
		"[join]",    // operator spans
		"deltas",    // stats families
		"rationale", // the planner's reasoning
		"plan cache",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainAnalyze missing %q:\n%s", want, out)
		}
	}
}

// TestTracedDeltaIsolation runs two traced evaluations concurrently and
// checks each trace's deltas match a solo baseline: the private-counter
// snapshot/diff must keep concurrent queries from contaminating each
// other.
func TestTracedDeltaIsolation(t *testing.T) {
	q := MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).")
	db := triangleDB(40, 6)
	ctx := context.Background()

	// Baseline: one traced evaluation alone on a warmed engine.
	eng := NewEngine()
	if _, _, _, err := eng.EvaluateTraced(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	_, _, base, err := eng.EvaluateTraced(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	baseRows := base.Deltas["stream_rows"]
	if baseRows == 0 {
		t.Fatalf("baseline deltas = %v, want stream_rows", base.Deltas)
	}
	// One name per counter: a delta's key is the counter's registry name,
	// and only counters that moved are listed.
	registered := make(map[string]bool)
	for _, e := range eng.Metrics().Entries() {
		registered[e.Name] = true
	}
	for name, v := range base.Deltas {
		if !registered[name] || v == 0 {
			t.Errorf("delta %s=%d: want a nonzero counter under its registry name", name, v)
		}
	}

	// Concurrent: both run the warmed query; each must see exactly the
	// solo delta, not a share of the sum.
	const workers = 4
	traces := make([]*Trace, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, tr, err := eng.EvaluateTraced(ctx, q, db)
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()
	for i, tr := range traces {
		if tr == nil {
			t.Fatalf("trace %d missing", i)
		}
		if rows := tr.Deltas["stream_rows"]; rows != baseRows {
			t.Errorf("trace %d stream rows = %d, want the solo %d", i, rows, baseRows)
		}
		if tr.Deltas["stream_batches"] == 0 {
			t.Errorf("trace %d streamed no batches", i)
		}
		hits, misses := tr.Deltas["cache_hits"], tr.Deltas["cache_misses"]
		if hits != 1 || misses != 0 {
			t.Errorf("trace %d cache delta = %d/%d, want exactly one hit", i, hits, misses)
		}
	}
	// The engine-wide totals still account for every evaluation.
	if got := metric(t, eng, "stream_rows"); got != baseRows*(workers+2) {
		t.Errorf("engine stream_rows = %d, want %d", got, baseRows*(workers+2))
	}
}

func TestWithTracingFeedsSinks(t *testing.T) {
	var mu sync.Mutex
	var got []*Trace
	var buf bytes.Buffer
	eng := NewEngine(
		WithTracing(),
		WithTraceSink(TraceSinkFunc(func(tr *Trace) {
			mu.Lock()
			got = append(got, tr)
			mu.Unlock()
		})),
		WithTraceSink(NewSlowQueryLog(&buf, 0)),
	)
	q := MustParse("Q(A,D) <- R(A,B), S(B,C), T(C,D).")
	if _, _, err := eng.Evaluate(context.Background(), q, pathDB(30)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Strategy != "yannakakis" {
		t.Fatalf("sink saw %d traces", len(got))
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow-query line: %v (%q)", err, buf.String())
	}
	if rec["strategy"] != "yannakakis" {
		t.Fatalf("record = %v", rec)
	}
}

func TestMetricsRegistryAndHistograms(t *testing.T) {
	eng := NewEngine()
	reg := eng.Metrics()
	if reg != eng.Metrics() {
		t.Fatal("Metrics must return one registry")
	}
	q := MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).")
	if _, _, _, err := eng.EvaluateTraced(context.Background(), q, triangleDB(30, 5)); err != nil {
		t.Fatal(err)
	}
	snap := eng.MetricsSnapshot()
	lat, ok := snap["query_latency_ns"].(HistogramSnapshot)
	if !ok || lat.Count != 1 || lat.Max <= 0 {
		t.Fatalf("query_latency_ns = %+v", snap["query_latency_ns"])
	}
	peak, _ := snap["query_peak_rows"].(HistogramSnapshot)
	if peak.Count != 1 || peak.Max == 0 {
		t.Fatalf("query_peak_rows = %+v", peak)
	}
	if snap["stream_rows"].(int64) == 0 {
		t.Fatal("stream_rows gauge must reflect the engine counters")
	}
	if snap["cache_misses"].(int64) == 0 {
		t.Fatal("cache_misses gauge must reflect the plan cache")
	}
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("HTTP body: %v", err)
	}
	if _, ok := m["query_latency_ns"]; !ok {
		t.Fatal("HTTP snapshot missing histogram")
	}
}

// TestSlowQueryLogSink: a slow-query log registered through WithTraceSink
// is the engine's one sink, and a high threshold drops fast queries.
func TestSlowQueryLogSink(t *testing.T) {
	var buf bytes.Buffer
	eng := NewEngine(WithTracing(), WithTraceSink(NewSlowQueryLog(&buf, time.Hour)))
	q := MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := pathDB(10)
	if _, _, err := eng.Evaluate(context.Background(), q, db); err != nil {
		t.Fatal(err)
	}
	if len(eng.sinks) != 1 {
		t.Fatalf("sinks = %d, want 1", len(eng.sinks))
	}
	if buf.Len() != 0 {
		t.Fatalf("a fast query reached the slow-query log: %s", buf.String())
	}
}
