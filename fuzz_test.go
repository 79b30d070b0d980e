package cqbound

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"cqbound/internal/cover"
	"cqbound/internal/cq"
	"cqbound/internal/eval"
)

// FuzzParseEvaluate fuzzes the query parser and evaluates survivors against
// a small deterministic database, asserting that the parse → validate →
// plan → evaluate pipeline never panics, that planned evaluation returns
// exactly the tuples of the naive reference (eval.NaiveCtx: plain joins and
// one projection, sharing no operator with the pipelines the engine runs),
// and that the output respects the AGM bound rmax^ρ*(Q) — the paper's
// Corollary 4.8 family made executable. The corpus is seeded with the five
// example queries shipped in examples/, two heads that repeat a variable,
// three shapes of Yannakakis' join pass (a path whose forced subtrees
// project onto their parent's variables, and two bodies with a Boolean
// guard atom that shares no variable with the head's atoms), and two heads
// that keep every body variable in another order, whose projection skips
// dedup.
func FuzzParseEvaluate(f *testing.F) {
	// One seed per example program (quickstart, treewidth, optimizer,
	// dataexchange, secretshare).
	seeds := []string{
		"Q(X,Z) <- Follows(X,Y), Follows(Y,Z).",
		"Q(X,Y,Z) <- R(X,Y), R(Y,Z), R(X,Z).\nkey R[1].",
		"Q(A,D) <- R(A,B), S(B,C), T(C,D).",
		"Q(X,Y) <- Src(X,U), Map(U,V), Dst(V,Y).\nfd Map[1] -> Map[2].",
		"R0(X1_1,X2_1) <- R1(X1_1,X2_1), T1(X1_1), T2(X2_1).",
		"Q(X,X,Y) <- R(X,Y).",
		"Q(X,X,Y) <- R(X,Y), S(Y,Z).",
		"Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).",
		"Q(X) <- R(X), S(Y).",
		"Q(V1) <- R1(V2), R1(V2), R1(V1).",
		"Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).",
		"Q(Y,X) <- R(X,Y).",
		// A projection that dedups 3-wide rows, and joins keyed on all
		// three columns of R and S: key tables of every width run.
		"Q(X,Y,Z) <- R(X,Y,W), S(W,Z).",
		"Q(W) <- R(X,Y,Z), S(X,Y,Z), T(Z,W).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	eng := NewEngine()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := cq.Parse(src)
		if err != nil {
			return // rejected input: the parser's job, not a bug
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("Parse accepted a query Validate rejects: %v\nquery: %s", err, q)
		}
		if !tractable(q) {
			return
		}
		db := fuzzDatabase(q)
		out, _, err := eng.Evaluate(context.Background(), q, db)
		if err != nil {
			t.Fatalf("planned evaluation failed on a valid query: %v\nquery: %s", err, q)
		}
		naive, _, err := eval.NaiveCtx(context.Background(), q, db)
		if err != nil {
			t.Fatalf("reference evaluation failed: %v\nquery: %s", err, q)
		}
		if !RelationsEqual(out, naive) {
			t.Fatalf("planned (%d tuples) and reference (%d tuples) disagree\nquery: %s",
				out.Size(), naive.Size(), q)
		}
		// Bound compliance: |Q(D)| ≤ rmax^ρ*(Q) (AGM, Definition 3.5 /
		// Theorem 15 lineage). ρ* covers every variable, so the full join —
		// and any projection of it — obeys the bound.
		res, err := cover.FractionalEdgeCover(q)
		if err != nil || res.Rho == nil {
			return
		}
		rmax, err := db.RMax(q)
		if err != nil || rmax < 2 {
			return
		}
		rho, _ := new(big.Float).SetRat(res.Rho).Float64()
		bound := math.Pow(float64(rmax), rho)
		if float64(out.Size()) > bound*(1+1e-9) {
			t.Fatalf("AGM bound violated: |Q(D)| = %d > rmax^ρ* = %d^%.3f = %.1f\nquery: %s",
				out.Size(), rmax, rho, bound, q)
		}
	})
}

// FuzzServeQuery drives /query end to end with a fuzzed query over
// fuzzed byte-string values: every relation the query names holds every
// tuple over those values, stored through the Go API, so they reach the
// body encoder unvalidated (quotes, HTML, control bytes, invalid UTF-8).
// A miss must decode to exactly the tuples of the naive reference
// (eval.NaiveCtx), each rendered the way encoding/json renders a string,
// and an immediate hit must repeat the miss's bytes with "cached" true.
func FuzzServeQuery(f *testing.F) {
	seeds := []struct {
		query   string
		a, b, c string
	}{
		{"Q(X,Y) <- R(X,Y).", `say "hi"\`, "<&>", "\x00\x1f\u2028"},
		{"Q(X,X,Y) <- R(X,Y).", "naïve", "naïve", ""},
		{"Q(X,Y,Z) <- R(X,Y), R(Y,Z), R(X,Z).", "bad\xff", "\xfe", "ok"},
		{"Q(X,Z) <- E(X,Y), E(Y,Z). % <script>", "a", "b", "c"},
		{"Q(X) <- R(X), S(Y).", "\t\n", "\u2029", "\U0001F600"},
	}
	for _, s := range seeds {
		f.Add(s.query, []byte(s.a), []byte(s.b), []byte(s.c))
	}
	f.Fuzz(func(t *testing.T, src string, a, b, c []byte) {
		q, err := cq.Parse(src)
		if err != nil || q.Validate() != nil || !tractable(q) {
			return
		}
		var universe []string
		for _, v := range []string{string(a), string(b), string(c)} {
			if !slices.Contains(universe, v) {
				universe = append(universe, v)
			}
		}
		eng := NewEngine()
		defer eng.Close()
		srv := NewServer(eng)
		defer srv.Close()
		tx := eng.Begin()
		for rel, arity := range q.RelationArities() {
			if err := tx.Create(rel, attrNamesFor(arity)...); err != nil {
				t.Fatal(err)
			}
			eachRow(arity, universe, func(row ...string) {
				if err := tx.Add(rel, row...); err != nil {
					t.Fatal(err)
				}
			})
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		get := func() []byte {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(src), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("/query answered %d: %s\nquery: %s", rec.Code, rec.Body, q)
			}
			return rec.Body.Bytes()
		}
		miss, hit := get(), get()

		var resp struct {
			Rows   int        `json:"rows"`
			Tuples [][]string `json:"tuples"`
			Cached bool       `json:"cached"`
		}
		if err := json.Unmarshal(miss, &resp); err != nil {
			t.Fatalf("miss body does not decode: %v\n%q", err, miss)
		}
		if resp.Cached || resp.Rows != len(resp.Tuples) {
			t.Fatalf("miss says cached=%v rows=%d with %d tuples", resp.Cached, resp.Rows, len(resp.Tuples))
		}
		snap := eng.Snapshot()
		defer snap.Close()
		naive, _, err := eval.NaiveCtx(context.Background(), q, snap.DB())
		if err != nil {
			t.Fatalf("reference evaluation failed: %v\nquery: %s", err, q)
		}
		var want [][]string
		naive.Each(func(tu Tuple) bool {
			want = append(want, tu.StringsIn(snap.DB().Dict()))
			return true
		})
		enc, _ := json.Marshal(want)
		want = nil
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		got := resp.Tuples
		for _, ts := range [][][]string{got, want} {
			slices.SortFunc(ts, func(x, y []string) int { return slices.Compare(x, y) })
		}
		if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Fatalf("served %d tuples, reference %d\nquery: %s\nserved: %q\nwant:   %q", len(got), len(want), q, got, want)
		}

		const missTail, hitTail = `,"cached":false}` + "\n", `,"cached":true}` + "\n"
		if !bytes.HasSuffix(miss, []byte(missTail)) {
			t.Fatalf("miss body does not end in %q: %q", missTail, miss)
		}
		if wantHit := append(bytes.TrimSuffix(miss, []byte(missTail)), hitTail...); !bytes.Equal(hit, wantHit) {
			t.Fatalf("hit body differs from the miss beyond \"cached\":\n got %q\nwant %q", hit, wantHit)
		}
	})
}

// tractable keeps fuzzed evaluation cheap: fuzzing explores the parser's
// full grammar, but evaluation cost is exponential in query size.
func tractable(q *cq.Query) bool {
	if len(q.Body) > 4 || len(q.Variables()) > 6 {
		return false
	}
	for _, a := range q.Body {
		if a.Arity() > 3 {
			return false
		}
	}
	return true
}

// eachRow calls add with every arity-wide row over universe.
func eachRow(arity int, universe []string, add func(row ...string)) {
	row := make([]string, arity)
	var fill func(p int)
	fill = func(p int) {
		if p == arity {
			add(row...)
			return
		}
		for _, u := range universe {
			row[p] = u
			fill(p + 1)
		}
	}
	fill(0)
}

// fuzzDatabase builds a small deterministic instance for q's body schema:
// every relation gets the same dense tuple set over a three-value universe,
// so any parsed query can be evaluated without coordination with the
// fuzzer.
func fuzzDatabase(q *cq.Query) *Database {
	db := NewDatabase()
	for rel, arity := range q.RelationArities() {
		r := NewRelation(rel, attrNamesFor(arity)...)
		eachRow(arity, []string{"a", "b", "c"}, func(row ...string) { r.Add(row...) })
		db.MustAdd(r)
	}
	return db
}

func attrNamesFor(arity int) []string {
	out := make([]string, arity)
	for i := range out {
		out[i] = "a" + strings.Repeat("i", i+1)
	}
	return out
}
