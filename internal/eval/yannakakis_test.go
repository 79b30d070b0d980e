package eval

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cqbound/internal/batch"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/metrics"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
)

func TestIsAcyclicKnownQueries(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"Q(X,Z) <- R(X,Y), S(Y,Z).", true},
		{"Q(X,Y,Z) <- R(X,Y), S(Y,Z), T(Z,W).", true},
		{"S(X,Y,Z) <- R(X,Y), R(Y,Z), R(X,Z).", false},           // triangle
		{"Q(A,B,C,D) <- R(A,B), R(B,C), R(C,D), R(D,A).", false}, // 4-cycle
		{"Q(X) <- R(X).", true},
		{"Q(X,Y) <- R(X), S(Y).", true},                 // disconnected
		{"Q(X,Y,Z) <- R(X,Y,Z), S(X,Y), T(Y,Z).", true}, // ears into big atom
		{"Q(X,Y,Z,W) <- R(X,Y), S(Y,Z), T(Z,W), U(W,X).", false},
	}
	for _, c := range cases {
		q := cq.MustParse(c.src)
		if got := IsAcyclic(q); got != c.want {
			t.Errorf("IsAcyclic(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestJoinTreeCoversAllAtoms(t *testing.T) {
	q := cq.MustParse("Q(X,Y,Z) <- R(X,Y), S(Y,Z), T(Z,W).")
	tree, ok := JoinTree(q)
	if !ok {
		t.Fatal("chain should be acyclic")
	}
	seen := map[int]bool{}
	var walk func(n *JoinTreeNode)
	walk = func(n *JoinTreeNode) {
		if seen[n.AtomIndex] {
			t.Fatalf("atom %d appears twice", n.AtomIndex)
		}
		seen[n.AtomIndex] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	if len(seen) != len(q.Body) {
		t.Fatalf("join tree covers %d of %d atoms", len(seen), len(q.Body))
	}
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	q := cq.MustParse("S(X,Y,Z) <- R(X,Y), R(Y,Z), R(X,Z).")
	r := relation.New("R", "a", "b")
	db := dbWith(r)
	if _, _, err := Yannakakis(q, db); err == nil {
		t.Fatal("Yannakakis accepted a cyclic query")
	}
}

func TestYannakakisMatchesJoinProjectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	acyclic := 0
	for trial := 0; acyclic < 60 && trial < 500; trial++ {
		q := datagen.RandomQuery(rng, datagen.QueryParams{
			MaxVars: 5, MaxAtoms: 4, MaxArity: 3,
			HeadFraction: 0.5, RepeatRelationProb: 0.3,
		})
		if !IsAcyclic(q) {
			continue
		}
		acyclic++
		db := datagen.RandomDatabase(rng, q, datagen.DBParams{Tuples: 12, Universe: 4})
		want, _, err := JoinProject(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Yannakakis(q, db)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}
		if !relation.Equal(want, got) {
			t.Fatalf("trial %d: Yannakakis disagrees on %s:\nwant %s\ngot %s", trial, q, want, got)
		}
	}
	if acyclic < 60 {
		t.Fatalf("only %d acyclic queries generated", acyclic)
	}
}

func TestYannakakisDanglingTuplesRemoved(t *testing.T) {
	// Chain with dangling tuples on both ends: the semijoin passes must
	// keep intermediates at O(input + output), not the cross product.
	q := cq.MustParse("Q(X,W) <- R(X,Y), S(Y,Z), T(Z,W).")
	r := relation.New("R", "a", "b")
	s := relation.New("S", "a", "b")
	tt := relation.New("T", "a", "b")
	// Only one chain survives end-to-end; everything else dangles.
	r.Add("x0", "y0")
	s.Add("y0", "z0")
	tt.Add("z0", "w0")
	for i := 0; i < 50; i++ {
		r.Add("x"+itoa(i), "ydangle")
		tt.Add("zdangle", "w"+itoa(i))
	}
	db := dbWith(r, s, tt)
	out, st, err := Yannakakis(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 {
		t.Fatalf("|Q(D)| = %d, want 1", out.Size())
	}
	if st.MaxIntermediate > 2 {
		t.Fatalf("max intermediate = %d; semijoin reduction failed", st.MaxIntermediate)
	}
	// The naive plan materializes the dangling joins.
	_, stNaive, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if stNaive.MaxIntermediate <= st.MaxIntermediate {
		t.Fatalf("expected naive (%d) to exceed Yannakakis (%d)", stNaive.MaxIntermediate, st.MaxIntermediate)
	}
}

func TestYannakakisDisconnectedQuery(t *testing.T) {
	q := cq.MustParse("Q(X,Y) <- R(X), S(Y).")
	r := relation.New("R", "a")
	r.Add("1")
	r.Add("2")
	s := relation.New("S", "a")
	s.Add("u")
	db := dbWith(r, s)
	out, _, err := Yannakakis(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2 {
		t.Fatalf("|Q(D)| = %d, want 2", out.Size())
	}
}

// yannakakisOptions are the executor configurations the deterministic
// Yannakakis tests run under: nil, partition-parallel at P=4 on any input,
// single-row batches, and a 256-byte spill budget.
func yannakakisOptions(t *testing.T) map[string]*shard.Options {
	gov := spill.NewGovernor(256, t.TempDir())
	t.Cleanup(func() { gov.Close() })
	return map[string]*shard.Options{
		"nil":        nil,
		"shards=4":   {MinRows: 0, Shards: 4},
		"batch=1":    {BatchSize: 1},
		"budget=256": {Spill: gov},
	}
}

// TestYannakakisProjectsToParentInterface pins the join pass's projection
// rule: a forced subtree result keeps only the variables its parent atom
// shares plus the head. On the path Q(A,E), every (A,C) pair is reached
// through all four Bs, so the subtree under S forces π_{A,C}(R⋈S) — not
// R⋈S, which keeping S's own B would force. When the head keeps every
// variable there is nothing to project, and the largest relation built is
// the output.
func TestYannakakisProjectsToParentInterface(t *testing.T) {
	path := func() *database.Database {
		r := relation.New("R", "a", "b")
		s := relation.New("S", "b", "c")
		tt := relation.New("T", "c", "d")
		u := relation.New("U", "d", "e")
		for b := 0; b < 4; b++ {
			for a := 0; a < 8; a++ {
				r.Add("a"+itoa(a), "b"+itoa(b))
			}
			for c := 0; c < 8; c++ {
				s.Add("b"+itoa(b), "c"+itoa(c))
			}
		}
		for c := 0; c < 8; c++ {
			tt.Add("c"+itoa(c), "d0")
		}
		for e := 0; e < 4; e++ {
			u.Add("d0", "e"+itoa(e))
		}
		return dbWith(r, s, tt, u)
	}
	star := func() *database.Database {
		r := relation.New("R", "x", "a")
		s := relation.New("S", "x", "b")
		tt := relation.New("T", "x", "c")
		for x := 0; x < 2; x++ {
			for i := 0; i < 3; i++ {
				r.Add("x"+itoa(x), "a"+itoa(i))
			}
			for i := 0; i < 2; i++ {
				s.Add("x"+itoa(x), "b"+itoa(i))
				tt.Add("x"+itoa(x), "c"+itoa(i))
			}
		}
		return dbWith(r, s, tt)
	}
	cases := []struct {
		name, src string
		db        func() *database.Database
		// maxIntermediate is the largest relation the join pass builds.
		maxIntermediate int
	}{
		// |R| = 32, |π_{A,C}(R⋈S)| = 8·8 = 64 (|R⋈S| = 256),
		// |π_{A,D}(R⋈S⋈T)| = 8, |Q(D)| = 8·4 = 32.
		{"path-4", "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).", path, 64},
		// |R| = 6, |R⋈S| = 12, |Q(D)| = 2·3·2·2 = 24.
		{"star-full-head", "Q(X,A,B,C) <- R(X,A), S(X,B), T(X,C).", star, 24},
	}
	for _, c := range cases {
		q := cq.MustParse(c.src)
		db := c.db()
		want, _, err := NaiveCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range yannakakisOptions(t) {
			got, st, err := YannakakisExec(context.Background(), q, db, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, name, err)
			}
			if !relation.Equal(want, got) {
				t.Fatalf("%s %s: %d tuples, naive has %d", c.name, name, got.Size(), want.Size())
			}
			if st.MaxIntermediate != c.maxIntermediate {
				t.Errorf("%s %s: max intermediate %d, want %d", c.name, name, st.MaxIntermediate, c.maxIntermediate)
			}
		}
	}
}

// TestYannakakisSkipsBooleanGuards pins that a component sharing no
// variable with the rest of the query and holding no head variable only
// guards non-emptiness: Q(X) <- R(X), S(Y) over 1 000 rows each must stream
// a few passes over the inputs, not the 10⁶-row cross product.
func TestYannakakisSkipsBooleanGuards(t *testing.T) {
	r := relation.New("R", "a")
	s := relation.New("S", "a")
	for i := 0; i < 1000; i++ {
		r.Add("r" + itoa(i))
		s.Add("s" + itoa(i))
	}
	db := dbWith(r, s)
	for _, src := range []string{"Q(X) <- R(X), S(Y).", "Q(Y) <- R(X), S(Y)."} {
		q := cq.MustParse(src)
		m := batch.Counters.NewSet()
		out, _, err := YannakakisExec(context.Background(), q, db, &shard.Options{Batch: m})
		if err != nil {
			t.Fatal(err)
		}
		if out.Size() != 1000 {
			t.Fatalf("%s: |Q(D)| = %d, want 1000", src, out.Size())
		}
		var rows int64
		m.Each(func(name string, v int64) {
			if name == "stream_rows" {
				rows = v
			}
		})
		if rows >= 10*2000 {
			t.Fatalf("%s: %d rows streamed for 1 000 output rows: the guard was cross-producted", src, rows)
		}
	}
}

func dbWith(rels ...*relation.Relation) *database.Database {
	db := database.New()
	for _, r := range rels {
		db.MustAdd(r)
	}
	return db
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	out := ""
	for i > 0 {
		out = string(rune('0'+i%10)) + out
		i /= 10
	}
	return out
}

// TestYannakakisForcedSubsAreGoverned checks that, under a memory budget
// and P = 4, every forced subtree result reaches its parent's join, and
// every reduced binding reaches the semijoin it filters, as one relation
// registered with the governor, and that the evaluation's scope discards
// them: once the scope closes, the governor tracks as many buffers as
// before the evaluation (the base relations' memoized partitions).
func TestYannakakisForcedSubsAreGoverned(t *testing.T) {
	gov := spill.NewGovernor(256, t.TempDir())
	defer gov.Close()
	registered := func() int64 {
		r := metrics.NewRegistry()
		gov.Register(r)
		v, _ := r.Value("spill_registered_buffers")
		return v
	}
	var (
		mu             sync.Mutex
		subs, reducers []*relation.Relation
	)
	defer func(join, semijoin func(context.Context, *shard.Options, *shard.Piped, *relation.Relation, bool) (*shard.Piped, error)) {
		joinForced, semijoinReducer = join, semijoin
	}(joinForced, semijoinReducer)
	joinForced = func(ctx context.Context, opts *shard.Options, pd *shard.Piped, sub *relation.Relation, transient bool) (*shard.Piped, error) {
		mu.Lock()
		subs = append(subs, sub)
		mu.Unlock()
		return shard.JoinPipedStream(ctx, opts, pd, sub, transient)
	}
	// A transient reducer is a reduction; a base binding is not.
	semijoinReducer = func(ctx context.Context, opts *shard.Options, pd *shard.Piped, reducer *relation.Relation, transient bool) (*shard.Piped, error) {
		if transient {
			mu.Lock()
			reducers = append(reducers, reducer)
			mu.Unlock()
		}
		return shard.SemijoinPipedStream(ctx, opts, pd, reducer, transient)
	}
	q := cq.MustParse("Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).")
	db := datagen.EdgeDB(rand.New(rand.NewSource(4)), []string{"R", "S", "T", "U"}, 300, 40)
	want, _, err := NaiveCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		scope := spill.NewScope()
		defer scope.Close()
		opts := &shard.Options{MinRows: 0, Shards: 4, Spill: gov, Scope: scope}
		got, _, err := YannakakisExec(context.Background(), q, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(got, want) {
			t.Fatalf("|Q(D)| = %d under the budget, naive %d", got.Size(), want.Size())
		}
	}
	run() // memoizes the base relations' partitions, which stay registered
	before := registered()
	subs, reducers = nil, nil
	run()
	if len(subs) == 0 || len(reducers) == 0 {
		t.Fatalf("%d forced subtree results and %d reductions reached an operator: the query cannot tell", len(subs), len(reducers))
	}
	for _, sub := range subs {
		if sub.Size() > 0 && (!sub.Governed() || sub.Buffer() == nil) {
			t.Errorf("a forced subtree result of %d rows reached its join unregistered with the governor", sub.Size())
		}
	}
	for _, r := range reducers {
		if r.Size() > 0 && (!r.Governed() || r.Buffer() == nil) {
			t.Errorf("a reduction of %d rows reached its semijoin unregistered with the governor", r.Size())
		}
	}
	if after := registered(); after != before {
		t.Errorf("governor tracks %d buffers after the evaluation, %d before: the scope left transients behind", after, before)
	}
}

// TestYannakakisNonReducingPassKeepsInput checks that a semijoin pass that
// removes no row leaves its binding as it was: on a star-3 over one edge
// relation no pass removes a row, so every reducer reaching a semijoin,
// unsharded and with four shards below the sharding threshold, is the
// unreduced binding, sharing the base relation's storage, and not a copy
// of it. (A pass that exchanges keeps its partitioned copy, whose parts
// the next pass reuses: ExampleEngine_MetricsSnapshot.)
func TestYannakakisNonReducingPassKeepsInput(t *testing.T) {
	var (
		mu       sync.Mutex
		reducers []*relation.Relation
	)
	defer func(semijoin func(context.Context, *shard.Options, *shard.Piped, *relation.Relation, bool) (*shard.Piped, error)) {
		semijoinReducer = semijoin
	}(semijoinReducer)
	semijoinReducer = func(ctx context.Context, opts *shard.Options, pd *shard.Piped, reducer *relation.Relation, transient bool) (*shard.Piped, error) {
		mu.Lock()
		reducers = append(reducers, reducer)
		mu.Unlock()
		return shard.SemijoinPipedStream(ctx, opts, pd, reducer, transient)
	}
	q := cq.MustParse("Q(X,A,B,C) <- E(X,A), E(X,B), E(X,C).")
	db := uniformEdgeDB(12, 2000, 130)
	base := db.Relation("E").Column(0)
	for _, opts := range []*shard.Options{{Shards: 1}, {Shards: 4, MinRows: 1 << 20}} {
		reducers = nil
		if _, _, err := YannakakisExec(context.Background(), q, db, opts); err != nil {
			t.Fatal(err)
		}
		if len(reducers) == 0 {
			t.Fatalf("P=%d: no reducer reached a semijoin", opts.Shards)
		}
		for _, r := range reducers {
			if col := r.Column(0); len(col) != len(base) || &col[0] != &base[0] {
				t.Errorf("P=%d: a reducer of %d rows is a copy of the %d-row binding no pass reduced", opts.Shards, r.Size(), len(base))
			}
		}
	}
}

// BenchmarkYannakakis runs Yannakakis' algorithm on a full-head star-3
// (2 000 edges over 130 nodes) and a path-4 projected to its endpoints
// (four relations of 6 000 edges over 1 200 nodes), each in one part and
// in four with MinRows 1024, with the indexes and partitions warm.
func BenchmarkYannakakis(b *testing.B) {
	cases := []struct {
		name string
		q    string
		db   *database.Database
	}{
		{"star-3", "Q(X,A,B,C) <- E(X,A), E(X,B), E(X,C).", uniformEdgeDB(12, 2000, 130)},
		{"path-4", "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).",
			datagen.EdgeDB(rand.New(rand.NewSource(4)), []string{"R", "S", "T", "U"}, 6000, 1200)},
	}
	ctx := context.Background()
	for _, c := range cases {
		q := cq.MustParse(c.q)
		for _, p := range []int{1, 4} {
			opts := &shard.Options{MinRows: 1024, Shards: p}
			b.Run(fmt.Sprintf("%s/P=%d", c.name, p), func(b *testing.B) {
				if _, _, err := YannakakisExec(ctx, q, c.db, opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := YannakakisExec(ctx, q, c.db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
