package eval

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cqbound/internal/chase"
	"cqbound/internal/coloring"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/trace"
)

// starDB builds Example 2.1's database: R = {<1,1>,...,<1,n>}.
func starDB(n int) *database.Database {
	r := relation.New("R", "A", "B")
	for i := 1; i <= n; i++ {
		r.Add("e1", fmt.Sprintf("e%d", i))
	}
	db := database.New()
	db.MustAdd(r)
	return db
}

type strategy struct {
	name string
	run  func(*cq.Query, *database.Database) (*relation.Relation, Stats, error)
}

var strategies = []strategy{
	{"naive", Naive},
	{"joinproject", JoinProject},
	{"genericjoin", GenericJoin},
}

func TestExample21AllStrategies(t *testing.T) {
	// R'(X,Y,Z) <- R(X,Y), R(X,Z) on the star has n² tuples.
	q := cq.MustParse("R2(X,Y,Z) <- R(X,Y), R(X,Z).")
	const n = 7
	db := starDB(n)
	for _, s := range strategies {
		out, _, err := s.run(q, db)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if out.Size() != n*n {
			t.Errorf("%s: |Q(D)| = %d, want %d", s.name, out.Size(), n*n)
		}
	}
}

func TestTriangleQuery(t *testing.T) {
	q := cq.MustParse("T(X,Y,Z) <- R(X,Y), R(Y,Z), R(X,Z).")
	r := relation.New("R", "A", "B")
	// Two triangles sharing an edge: (a,b,c) and (a,b,d).
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"b", "d"}, {"a", "d"}} {
		r.Add(e[0], e[1])
	}
	db := database.New()
	db.MustAdd(r)
	for _, s := range strategies {
		out, _, err := s.run(q, db)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if out.Size() != 2 {
			t.Errorf("%s: triangles = %d, want 2", s.name, out.Size())
		}
		want := relation.Tuple{relation.V("a"), relation.V("b"), relation.V("c")}
		if !out.Has(want) {
			t.Errorf("%s: missing triangle (a,b,c)", s.name)
		}
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	// Q(X) <- R(X,X): selects the diagonal.
	q := cq.MustParse("Q(X) <- R(X,X).")
	r := relation.New("R", "A", "B")
	r.Add("a", "a")
	r.Add("a", "b")
	r.Add("c", "c")
	db := database.New()
	db.MustAdd(r)
	for _, s := range strategies {
		out, _, err := s.run(q, db)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if out.Size() != 2 {
			t.Errorf("%s: size = %d, want 2", s.name, out.Size())
		}
	}
}

// TestRepeatedHeadVariable: a head may list a variable twice. Every
// strategy — and the two pipelined executors at several part counts and
// batch sizes, whose projection has to name the repeated column apart
// before the sink builds a relation — returns the arity-3 answer Naive does.
func TestRepeatedHeadVariable(t *testing.T) {
	r := relation.New("R", "A", "B")
	s := relation.New("S", "A", "B")
	for i := 0; i < 40; i++ {
		r.Add(fmt.Sprintf("x%d", i%7), fmt.Sprintf("y%d", i%11))
		s.Add(fmt.Sprintf("y%d", i%5), fmt.Sprintf("z%d", i))
	}
	db := database.New()
	db.MustAdd(r)
	db.MustAdd(s)
	ctx := context.Background()
	runs := append([]strategy{{"yannakakis", Yannakakis}}, strategies...)
	for _, o := range []*shard.Options{{Shards: 1}, {Shards: 4}, {Shards: 4, BatchSize: 1}} {
		o := o
		tag := fmt.Sprintf("P=%d batch=%d", o.Shards, o.BatchSize)
		runs = append(runs,
			strategy{"joinproject " + tag, func(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
				return JoinProjectExec(ctx, q, db, nil, o)
			}},
			strategy{"yannakakis " + tag, func(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
				return YannakakisExec(ctx, q, db, o)
			}})
	}
	for _, text := range []string{"Q(X,X,Y) <- R(X,Y).", "Q(X,X,Y) <- R(X,Y), S(Y,Z)."} {
		q := cq.MustParse(text)
		want, _, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if want.Arity() != 3 || want.Size() == 0 {
			t.Fatalf("%s: naive answer %v", text, want)
		}
		for _, st := range runs {
			out, _, err := st.run(q, db)
			if err != nil {
				t.Fatalf("%s: %s: %v", text, st.name, err)
			}
			if out.Arity() != 3 || !relation.Equal(want, out) {
				t.Errorf("%s: %s: arity %d with %d tuples, naive has %d", text, st.name, out.Arity(), out.Size(), want.Size())
			}
		}
	}
}

// TestBooleanHead checks a head with no variables on every executor: the
// answer is the empty tuple when the body has a match and nothing when it
// has none. The pipelined executors sink an arity-0 head, whose rows have
// no column to hold them.
func TestBooleanHead(t *testing.T) {
	r := relation.New("R", "A", "B")
	s := relation.New("S", "A", "B")
	for i := 0; i < 40; i++ {
		r.Add(fmt.Sprintf("x%d", i%7), fmt.Sprintf("y%d", i%11))
		s.Add(fmt.Sprintf("y%d", i%5), fmt.Sprintf("z%d", i))
	}
	db := database.New()
	db.MustAdd(r)
	db.MustAdd(s)
	ctx := context.Background()
	runs := append([]strategy{{"yannakakis", Yannakakis}}, strategies...)
	for _, o := range []*shard.Options{{Shards: 1}, {Shards: 4}} {
		tag := fmt.Sprintf("P=%d", o.Shards)
		runs = append(runs,
			strategy{"joinproject " + tag, func(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
				return JoinProjectExec(ctx, q, db, nil, o)
			}},
			strategy{"yannakakis " + tag, func(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
				return YannakakisExec(ctx, q, db, o)
			}})
	}
	for _, c := range []struct {
		text string
		want int
	}{
		{"Q(X) <- R(X,Y), S(Y,Z).", 1},
		{"Q(X) <- R(X,Y), S(Z,X).", 0}, // no R value in S's second column
	} {
		q := cq.MustParse(c.text)
		q.Head.Vars = nil
		for _, st := range runs {
			out, _, err := st.run(q, db)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.text, st.name, err)
			}
			if out.Arity() != 0 || out.Size() != c.want {
				t.Errorf("%s with no head variables: %s: arity %d with %d tuples, want %d",
					c.text, st.name, out.Arity(), out.Size(), c.want)
			}
		}
	}
}

// TestSinkSpanReportsParts checks the head sink's span: the answer is
// one flat relation, and the span still reports how many parts drained
// into it — P for a partitioned plan, none for a single pipeline — and
// the answer's rows.
func TestSinkSpanReportsParts(t *testing.T) {
	db := datagen.EdgeDB(rand.New(rand.NewSource(3)), []string{"R", "S", "T"}, 300, 40)
	q := cq.MustParse("Q(A,D) <- R(A,B), S(B,C), T(C,D).")
	for _, p := range []int{1, 4} {
		for name, run := range map[string]func(*shard.Options) (*relation.Relation, Stats, error){
			"joinproject": func(o *shard.Options) (*relation.Relation, Stats, error) {
				return JoinProjectExec(context.Background(), q, db, nil, o)
			},
			"yannakakis": func(o *shard.Options) (*relation.Relation, Stats, error) {
				return YannakakisExec(context.Background(), q, db, o)
			},
		} {
			tr := trace.NewTracer(q.String())
			out, _, err := run(&shard.Options{MinRows: 0, Shards: p, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			var sinks []*trace.Span
			var walk func(*trace.Span)
			walk = func(s *trace.Span) {
				if s.Name() == "materialize Q" {
					sinks = append(sinks, s)
				}
				for _, c := range s.Children() {
					walk(c)
				}
			}
			walk(tr.Finish().Root)
			if len(sinks) != 1 {
				t.Fatalf("%s P=%d: %d head sink spans, want 1", name, p, len(sinks))
			}
			want := p
			if p == 1 {
				want = 0
			}
			if got := sinks[0].Shards(); got != want {
				t.Errorf("%s P=%d: sink span reports %d shards, want %d", name, p, got, want)
			}
			if got := sinks[0].RowsOut(); got != int64(out.Size()) {
				t.Errorf("%s P=%d: sink span reports %d rows, the answer has %d", name, p, got, out.Size())
			}
		}
	}
}

func TestProjectionQuery(t *testing.T) {
	// Q(X,Z) <- R(X,Y), S(Y,Z): classic composition.
	q := cq.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	r := relation.New("R", "A", "B")
	r.Add("x1", "y1")
	r.Add("x2", "y1")
	s := relation.New("S", "A", "B")
	s.Add("y1", "z1")
	s.Add("y2", "z2")
	db := database.New()
	db.MustAdd(r)
	db.MustAdd(s)
	for _, st := range strategies {
		out, _, err := st.run(q, db)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if out.Size() != 2 {
			t.Errorf("%s: size = %d, want 2", st.name, out.Size())
		}
	}
}

func TestEmptyRelationGivesEmptyResult(t *testing.T) {
	q := cq.MustParse("Q(X) <- R(X,Y), S(Y).")
	r := relation.New("R", "A", "B")
	r.Add("1", "2")
	s := relation.New("S", "A")
	db := database.New()
	db.MustAdd(r)
	db.MustAdd(s)
	for _, st := range strategies {
		out, _, err := st.run(q, db)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if out.Size() != 0 {
			t.Errorf("%s: size = %d, want 0", st.name, out.Size())
		}
	}
}

func TestMissingRelationError(t *testing.T) {
	q := cq.MustParse("Q(X) <- Nope(X).")
	db := database.New()
	for _, s := range strategies {
		if _, _, err := s.run(q, db); err == nil {
			t.Errorf("%s: accepted missing relation", s.name)
		}
	}
}

func TestStrategiesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		q := datagen.RandomQuery(rng, datagen.QueryParams{
			MaxVars: 5, MaxAtoms: 4, MaxArity: 3,
			HeadFraction: 0.5, RepeatRelationProb: 0.3,
		})
		db := datagen.RandomDatabase(rng, q, datagen.DBParams{Tuples: 12, Universe: 4})
		base, _, err := Naive(q, db)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}
		for _, s := range strategies[1:] {
			out, _, err := s.run(q, db)
			if err != nil {
				t.Fatalf("trial %d (%s) %s: %v", trial, q, s.name, err)
			}
			if !relation.Equal(base, out) {
				t.Fatalf("trial %d: %s disagrees with naive on %s:\nnaive: %s\n%s: %s",
					trial, s.name, q, base, s.name, out)
			}
		}
	}
}

// TestChaseInvariance verifies Fact 2.4: Q(D) = chase(Q)(D) on databases
// satisfying the declared dependencies.
func TestChaseInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		q := datagen.RandomQuery(rng, datagen.QueryParams{
			MaxVars: 5, MaxAtoms: 4, MaxArity: 3,
			HeadFraction: 0.5, RepeatRelationProb: 0.5, SimpleFDProb: 0.3,
		})
		db := datagen.RandomDatabase(rng, q, datagen.DBParams{Tuples: 10, Universe: 3})
		ch := chase.Chase(q).Query
		a, _, err := JoinProject(q, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, _, err := JoinProject(ch, db)
		if err != nil {
			t.Fatalf("trial %d (chased %s): %v", trial, ch, err)
		}
		if !relation.Equal(a, b) {
			t.Fatalf("trial %d: chase changed result for %s\noriginal: %s\nchased (%s): %s",
				trial, q, a, ch, b)
		}
	}
}

// TestSizeBoundNoFDsRandom verifies Proposition 4.1's upper bound
// |Q(D)| ≤ rmax(D)^C(Q) on random FD-free instances.
func TestSizeBoundNoFDsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		q := datagen.RandomQuery(rng, datagen.QueryParams{
			MaxVars: 5, MaxAtoms: 4, MaxArity: 3,
			HeadFraction: 0.6, RepeatRelationProb: 0.3,
		})
		db := datagen.RandomDatabase(rng, q, datagen.DBParams{Tuples: 15, Universe: 4})
		out, _, err := JoinProject(q, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c, _, err := coloring.NumberNoFDs(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rmax, err := db.RMax(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !boundHolds(out.Size(), rmax, c) {
			t.Fatalf("trial %d: |Q(D)| = %d > rmax^C = %d^%v for %s",
				trial, out.Size(), rmax, c, q)
		}
	}
}

// TestSizeBoundSimpleFDsRandom verifies Theorem 4.4's upper bound
// |Q(D)| ≤ rmax(D)^C(chase(Q)) on random keyed instances.
func TestSizeBoundSimpleFDsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	trials := 0
	for trials < 50 {
		q := datagen.RandomQuery(rng, datagen.QueryParams{
			MaxVars: 5, MaxAtoms: 4, MaxArity: 3,
			HeadFraction: 0.6, RepeatRelationProb: 0.4, SimpleFDProb: 0.35,
		})
		if !chase.Chase(q).Query.AllVarFDsSimple() {
			continue
		}
		trials++
		db := datagen.RandomDatabase(rng, q, datagen.DBParams{Tuples: 15, Universe: 4})
		out, _, err := JoinProject(q, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trials, err)
		}
		c, _, _, err := coloring.NumberWithSimpleFDs(q)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trials, q, err)
		}
		rmax, err := db.RMax(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trials, err)
		}
		if !boundHolds(out.Size(), rmax, c) {
			t.Fatalf("trial %d: |Q(D)| = %d > rmax^C = %d^%v for %s",
				trials, out.Size(), rmax, c, q)
		}
	}
}

// boundHolds reports whether size ≤ rmax^c for rational c, checked exactly
// as size^denom ≤ rmax^num.
func boundHolds(size, rmax int, c *big.Rat) bool {
	if size <= 1 {
		return true
	}
	if rmax == 0 {
		return false
	}
	lhs := new(big.Int).Exp(big.NewInt(int64(size)), c.Denom(), nil)
	rhs := new(big.Int).Exp(big.NewInt(int64(rmax)), c.Num(), nil)
	return lhs.Cmp(rhs) <= 0
}

func TestStatsRecorded(t *testing.T) {
	q := cq.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	r := relation.New("R", "A", "B")
	r.Add("1", "2")
	s := relation.New("S", "A", "B")
	s.Add("2", "3")
	db := database.New()
	db.MustAdd(r)
	db.MustAdd(s)
	_, st, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if st.Joins != 1 || st.MaxIntermediate < 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

// BenchmarkJoinProjectTriangle runs project-early on a uniform triangle
// (20 000 edges over 1 000 nodes) in one part and in four row ranges with
// MinRows 1024, with the indexes warm: the plan whose intermediate
// crossed between parts before every part probed one shared index.
func BenchmarkJoinProjectTriangle(b *testing.B) {
	q := cq.MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).")
	db := uniformEdgeDB(7, 20000, 1000)
	ctx := context.Background()
	for _, p := range []int{1, 4} {
		opts := &shard.Options{MinRows: 1024, Shards: p}
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			if _, _, err := JoinProjectExec(ctx, q, db, nil, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := JoinProjectExec(ctx, q, db, nil, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
