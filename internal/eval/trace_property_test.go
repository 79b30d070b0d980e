// Property-based tracing harness — the sixth pass over the shared random
// query/database pairs: every executor runs twice per pair, untraced and
// with a live tracer in its options, under the forced-spill 256-byte
// budget, at every shard count. Tracing must be purely observational —
// traced output identical to untraced and to unsharded Naive — and every
// traced run must actually produce a span tree, or the instrumentation
// went inert and the harness is vacuous.
package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

// TestPropertyTracedAgrees re-runs the harness pairs through the
// join-project, Yannakakis (when acyclic) and generic-join executors
// with tracing on, under the shared tiny spill governor, and requires
// byte-identical outputs plus a nonzero span count from every traced
// evaluation.
func TestPropertyTracedAgrees(t *testing.T) {
	iters := propertyIterations
	if testing.Short() {
		iters = 60
	}
	profiles := []datagen.QueryParams{
		{MaxVars: 5, MaxAtoms: 4, MaxArity: 3, HeadFraction: 0.7, RepeatRelationProb: 0.3, SimpleFDProb: 0.15},
		{MaxVars: 3, MaxAtoms: 5, MaxArity: 2, HeadFraction: 0.5, RepeatRelationProb: 0.6},
		{MaxVars: 6, MaxAtoms: 3, MaxArity: 4, HeadFraction: 0.9, RepeatRelationProb: 0.2, CompoundFDProb: 0.3},
		{MaxVars: 2, MaxAtoms: 3, MaxArity: 3, HeadFraction: 0.6, RepeatRelationProb: 0.5, SimpleFDProb: 0.3},
	}
	dbProfiles := []datagen.DBParams{
		{Tuples: 12, Universe: 6},
		{Tuples: 25, Universe: 4},
		{Tuples: 6, Universe: 12},
		{Tuples: 30, Universe: 8, ZipfS: 1.7},
		{Tuples: 20, Universe: 15, ZipfS: 2.5},
	}
	gov := spill.NewGovernor(spillBudgetBytes, t.TempDir())
	defer gov.Close()
	var spans int64
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(propertyBaseSeed + int64(i)))
		q := datagen.RandomQuery(rng, profiles[i%len(profiles)])
		db := datagen.RandomDatabase(rng, q, dbProfiles[i%len(dbProfiles)])
		p := shardCounts[i%len(shardCounts)]
		if msg := tracedDisagreement(gov, p, q, db, &spans); msg != "" {
			check := func(q *cq.Query, db *database.Database) string {
				return tracedDisagreement(gov, p, q, db, &spans)
			}
			q, db, msg = shrink(check, q, db, msg)
			t.Fatalf("iteration %d (seed %d, shards %d): traced execution disagrees after shrinking: %s\n"+
				"minimal query:\n%s\nminimal database:\n%s",
				i, propertyBaseSeed+int64(i), p, msg, q, dumpDB(db))
		}
	}
	if spans == 0 {
		t.Fatal("no traced run produced spans: the instrumentation went inert")
	}
	if ev, re := spillCount(gov, "evictions"), spillCount(gov, "reloaded_shards"); ev == 0 || re == 0 {
		t.Fatalf("the forced-spill budget never spilled under tracing (evictions=%d reloads=%d)", ev, re)
	}
}

// tracedDisagreement runs each executor untraced and traced (both under
// the shared governor at partition count p) and compares all outputs
// against unsharded Naive, returning the first inconsistency ("" when
// all agree). Span counts of the traced runs accumulate into *spans.
func tracedDisagreement(gov *spill.Governor, p int, q *cq.Query, db *database.Database, spans *int64) string {
	ctx := context.Background()
	ref, _, err := eval.NaiveCtx(ctx, q, db)
	if err != nil {
		return fmt.Sprintf("naive: %v", err)
	}
	check := func(name string, out *relation.Relation, err error) string {
		if err != nil {
			return fmt.Sprintf("%s: %v", name, err)
		}
		if !relation.Equal(ref, out) {
			return fmt.Sprintf("%s: %d tuples, naive has %d", name, out.Size(), ref.Size())
		}
		return ""
	}
	type executor struct {
		name string
		run  func(*shard.Options) (*relation.Relation, eval.Stats, error)
	}
	execs := []executor{
		{"join-project", func(o *shard.Options) (*relation.Relation, eval.Stats, error) {
			return eval.JoinProjectExec(ctx, q, db, nil, o)
		}},
		{"generic-join", func(o *shard.Options) (*relation.Relation, eval.Stats, error) {
			return eval.GenericJoinExec(ctx, q, db, o)
		}},
	}
	if eval.IsAcyclic(q) {
		execs = append(execs, executor{"yannakakis", func(o *shard.Options) (*relation.Relation, eval.Stats, error) {
			return eval.YannakakisExec(ctx, q, db, o)
		}})
	}
	for _, ex := range execs {
		mk := func(tr *trace.Tracer, scope *spill.Scope) *shard.Options {
			return &shard.Options{
				MinRows: 0, Shards: p, BatchSize: 7, Spill: gov, Scope: scope, Trace: tr,
			}
		}
		scope := spill.NewScope()
		plain, _, err := ex.run(mk(nil, scope))
		scope.Close()
		if msg := check(ex.name+" untraced", plain, err); msg != "" {
			return msg
		}
		tr := trace.NewTracer(q.String())
		scope = spill.NewScope()
		traced, _, err := ex.run(mk(tr, scope))
		scope.Close()
		tc := tr.Finish()
		if msg := check(ex.name+" traced", traced, err); msg != "" {
			return msg
		}
		if !relation.Equal(plain, traced) {
			return fmt.Sprintf("%s: traced output differs from untraced", ex.name)
		}
		if tc.SpanCount() < 2 {
			return fmt.Sprintf("%s: traced run produced %d spans, want a tree", ex.name, tc.SpanCount())
		}
		*spans += int64(tc.SpanCount())
	}
	return ""
}
