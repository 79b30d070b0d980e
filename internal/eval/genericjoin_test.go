package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/trace"
)

// uniformEdgeDB holds one relation E of n edges drawn uniformly over the
// given number of nodes.
func uniformEdgeDB(seed int64, n, nodes int) *database.Database {
	rng := rand.New(rand.NewSource(seed))
	e := relation.New("E", "a", "b")
	for i := 0; i < n; i++ {
		e.Add(fmt.Sprintf("u%d", rng.Intn(nodes)), fmt.Sprintf("u%d", rng.Intn(nodes)))
	}
	db := database.New()
	db.MustAdd(e)
	return db
}

// hubTriangleDB is Example 3.3's worst case for pairwise joins: R1, R2 and
// R3 each hold (i,0) and (0,i) for i = 0..k, so every two-atom join has
// about k² rows while the triangle query has 3k+1.
func hubTriangleDB(k int) *database.Database {
	db := database.New()
	for _, name := range []string{"R1", "R2", "R3"} {
		r := relation.New(name, "a", "b")
		for i := 0; i <= k; i++ {
			r.Add(fmt.Sprint(i), "0")
			r.Add("0", fmt.Sprint(i))
		}
		db.MustAdd(r)
	}
	return db
}

// TestGenericJoinReadsJoinIndexes checks that generic join memoizes no
// structure of its own: it reads the per-prefix hash indexes a join on the
// same columns probes.
func TestGenericJoinReadsJoinIndexes(t *testing.T) {
	db := uniformEdgeDB(7, 250, 40)
	e := db.Relation("E")
	q := cq.MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).")
	out, _, err := GenericJoinExec(context.Background(), q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(out, ref) {
		t.Fatalf("generic join: %d tuples, naive has %d", out.Size(), ref.Size())
	}
	read := make(map[*relation.Index]bool)
	e.EachMemo(func(key string, v any, valid bool) bool {
		if strings.HasPrefix(key, "trie:") {
			t.Errorf("generic join memoized %q", key)
		}
		if ix, ok := v.(*relation.Index); ok && valid {
			read[ix] = true
		}
		return true
	})
	// E(Y,Z) and E(X,Z) bind their first variable in column 0.
	if !read[e.Index(0)] {
		t.Fatal("generic join did not read the index a join on column 0 probes")
	}
}

// TestGenericJoinStopsAtWitness checks that below the deepest head
// variable the search stops at the first witness: on a 4-cycle projected
// to Q(A), the last extension level counts one assignment per answer, not
// every 4-cycle through it.
func TestGenericJoinStopsAtWitness(t *testing.T) {
	db := uniformEdgeDB(7, 250, 40)
	q := cq.MustParse("Q(A) <- E(A,B), E(B,C), E(C,D), E(D,A).")
	tr := trace.NewTracer(q.String())
	out, _, err := GenericJoinExec(context.Background(), q, db, &shard.Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := NaiveCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(out, ref) {
		t.Fatalf("generic join: %d tuples, naive has %d", out.Size(), ref.Size())
	}
	var extends []*trace.Span
	var walk func(*trace.Span)
	walk = func(s *trace.Span) {
		if strings.HasPrefix(s.Name(), "extend ") {
			extends = append(extends, s)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(tr.Finish().Root)
	if len(extends) != 4 {
		t.Fatalf("%d extend spans, want 4", len(extends))
	}
	full, _, err := NaiveCtx(context.Background(), cq.MustParse("Q(A,B,C,D) <- E(A,B), E(B,C), E(C,D), E(D,A)."), db)
	if err != nil {
		t.Fatal(err)
	}
	if full.Size() <= ref.Size() {
		t.Fatalf("%d 4-cycles over %d answers: the instance cannot tell", full.Size(), ref.Size())
	}
	last := extends[len(extends)-1]
	if got := last.RowsOut(); got != int64(ref.Size()) {
		t.Errorf("%s counts %d assignments, want one witness per answer (%d); the query has %d 4-cycles",
			last.Name(), got, ref.Size(), full.Size())
	}
}

// TestGenericJoinFullHeadAllocs checks that a full-head evaluation over
// warm indexes allocates little beyond its answer: the leaf appends to
// output columns, with no dedup table and no per-row tuple.
func TestGenericJoinFullHeadAllocs(t *testing.T) {
	db := uniformEdgeDB(7, 250, 40)
	q := cq.MustParse("Q(A,B,C,D) <- E(A,B), E(B,C), E(C,D), E(D,A).")
	ctx := context.Background()
	out, _, err := GenericJoinExec(ctx, q, db, nil) // warms the indexes
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, _, err := GenericJoinExec(ctx, q, db, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	answer := uint64(out.Size()*out.Arity()) * uint64(unsafe.Sizeof(relation.Value(0)))
	if answer == 0 {
		t.Fatal("empty answer: the instance cannot tell")
	}
	if perRun > 4*answer {
		t.Errorf("%d B allocated per evaluation, over 4x the answer's %d column bytes", perRun, answer)
	}
}

// TestGenericJoinEdgeCases checks the search's special paths against
// NaiveCtx: boolean and repeated-variable heads, a query with no
// variables, heads that are and are not a prefix of the variable order, an
// empty relation, a ternary atom whose postings repeat a value, and
// postings on both sides of scanLimit.
func TestGenericJoinEdgeCases(t *testing.T) {
	// dag has no directed cycle; cyclic adds one triangle to it.
	dag, cyclic := database.New(), database.New()
	for _, db := range []*database.Database{dag, cyclic} {
		e := relation.New("E", "a", "b")
		for i := 0; i < 12; i++ {
			for j := i + 1; j < 12; j += 1 + i%3 {
				e.Add(fmt.Sprint(i), fmt.Sprint(j))
			}
		}
		if db == cyclic {
			e.Add("7", "2")
		}
		db.MustAdd(e)
	}
	// ternary: T(a,b,c) holds every c in 0..3 for each (a,b), so a posting
	// under A repeats each B value four times; under an even A it holds 12
	// rows, under an odd one 40. E(b,a) has 64 rows under each a.
	ternary := database.New()
	tr := relation.New("T", "a", "b", "c")
	for a := 0; a < 6; a++ {
		bs := 3
		if a%2 == 1 {
			bs = 10
		}
		for b := 0; b < bs; b++ {
			for c := 0; c < 4; c++ {
				tr.Add(fmt.Sprint(a), fmt.Sprint(b), fmt.Sprint(c))
			}
		}
	}
	te := relation.New("E", "a", "b")
	for b := 0; b < 80; b++ {
		for a := 0; a < 6; a++ {
			if (a+b)%5 != 0 {
				te.Add(fmt.Sprint(b), fmt.Sprint(a))
			}
		}
	}
	// F(b,a) has at most three rows under each a, so T is the atom that
	// narrows under A: by a filtered scan or a probe.
	tf := relation.New("F", "a", "b")
	for a := 0; a < 6; a++ {
		for b := a; b < 10; b += 4 {
			tf.Add(fmt.Sprint(b), fmt.Sprint(a))
		}
	}
	ternary.MustAdd(tr)
	ternary.MustAdd(te)
	ternary.MustAdd(tf)
	// hub: a sparse graph plus one node with 100 out- and in-edges, so
	// postings fall on both sides of scanLimit.
	hub := uniformEdgeDB(5, 150, 60)
	for i := 0; i < 100; i++ {
		hub.Relation("E").Add("hub", fmt.Sprintf("u%d", i%60))
		hub.Relation("E").Add(fmt.Sprintf("u%d", (i*7)%60), "hub")
	}
	empty := uniformEdgeDB(3, 60, 12)
	empty.MustAdd(relation.New("S", "a", "b"))

	// nullary holds the empty tuple in the zero-arity relation N.
	nullary := database.New()
	n := relation.New("N")
	n.MustInsert()
	nullary.MustAdd(n)

	boolean := func(src string) *cq.Query {
		q := cq.MustParse(src)
		q.Head.Vars = nil
		return q
	}
	cases := []struct {
		name string
		q    *cq.Query
		db   *database.Database
	}{
		{"boolean true", boolean("Q(A) <- E(A,B), E(B,C), E(C,A)."), cyclic},
		{"boolean false", boolean("Q(A) <- E(A,B), E(B,C), E(C,A)."), dag},
		{"no variables", &cq.Query{Head: cq.Atom{Relation: "Q"}, Body: []cq.Atom{{Relation: "N"}}}, nullary},
		{"repeated head variable", cq.MustParse("Q(X,X,Y) <- E(X,Y), E(Y,Z)."), uniformEdgeDB(3, 60, 12)},
		{"head not a prefix", cq.MustParse("Q(A,F) <- E(A,B), E(B,C), E(C,D), E(D,F)."), uniformEdgeDB(3, 60, 12)},
		{"head prefix projection", cq.MustParse("Q(A,B) <- E(A,B), E(B,C), E(C,D), E(D,A)."), uniformEdgeDB(7, 250, 40)},
		{"empty relation", cq.MustParse("Q(X,Z) <- E(X,Y), S(Y,Z)."), empty},
		{"ternary repeated postings", cq.MustParse("Q(A,B,C) <- T(A,B,C), E(B,A)."), ternary},
		{"ternary narrowed", cq.MustParse("Q(A,B,C) <- T(A,B,C), F(B,A)."), ternary},
		{"ternary projected", cq.MustParse("Q(A) <- T(A,B,C), E(B,A), E(C,A)."), ternary},
		{"short relations", cq.MustParse("Q(X,Y,Z) <- F(X,Y), F(Y,Z), F(X,Z)."), ternary},
		{"hub triangle", cq.MustParse("Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z)."), hubTriangleDB(40)},
		{"hub 4-cycle", cq.MustParse("Q(A,B,C,D) <- E(A,B), E(B,C), E(C,D), E(D,A)."), hub},
		{"hub 4-cycle projected", cq.MustParse("Q(A) <- E(A,B), E(B,C), E(C,D), E(D,A)."), hub},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, _, err := NaiveCtx(ctx, c.q, c.db)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := GenericJoinExec(ctx, c.q, c.db, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(out, ref) {
				t.Fatalf("generic join: %d tuples, naive has %d", out.Size(), ref.Size())
			}
			if n := out.RowTable().Len(); n != out.Size() {
				t.Fatalf("generic join: %d rows but %d distinct", out.Size(), n)
			}
		})
	}
	if out, _, _ := NaiveCtx(ctx, cases[0].q, cyclic); out.Size() != 1 {
		t.Errorf("boolean true instance answers %d tuples, want 1", out.Size())
	}
	if out, _, _ := NaiveCtx(ctx, cases[1].q, dag); out.Size() != 0 {
		t.Errorf("boolean false instance answers %d tuples, want 0", out.Size())
	}
	if out, _, _ := NaiveCtx(ctx, cases[2].q, nullary); out.Size() != 1 {
		t.Errorf("nullary instance answers %d tuples, want 1", out.Size())
	}
}

// BenchmarkGenericJoin runs generic join on uniform 4-cycles (250 edges
// over 40 nodes and 4 000 over 400), the 4-cycle projected to Q(A), a
// uniform triangle (20 000 edges over 1 000 nodes) and Example 3.3's
// worst-case triangle at k = 3 000, each next to project-early
// (JoinProjectExec) on the same instance, with the indexes warm after the
// first iteration and nil options.
func BenchmarkGenericJoin(b *testing.B) {
	cycle := "Q(A,B,C,D) <- E(A,B), E(B,C), E(C,D), E(D,A)."
	large := uniformEdgeDB(7, 4000, 400)
	cases := []struct {
		name string
		q    string
		db   *database.Database
	}{
		{"4-cycle", cycle, uniformEdgeDB(7, 250, 40)},
		{"4-cycle-4000", cycle, large},
		{"4-cycle-4000-Q(A)", "Q(A) <- E(A,B), E(B,C), E(C,D), E(D,A).", large},
		{"triangle-20000", "Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).", uniformEdgeDB(7, 20000, 1000)},
		{"worst-case-triangle", "Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).", hubTriangleDB(3000)},
	}
	ctx := context.Background()
	for _, c := range cases {
		q := cq.MustParse(c.q)
		b.Run(c.name+"/generic-join", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := GenericJoinExec(ctx, q, c.db, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/project-early", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := JoinProjectExec(ctx, q, c.db, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
