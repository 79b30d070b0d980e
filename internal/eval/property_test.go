// Property-based cross-strategy harness: random conjunctive queries
// (varying arity, repeated variables, projections, cyclicity, functional
// dependencies) meet random databases, and every evaluation strategy —
// Naive, JoinProject, GenericJoin, Yannakakis when acyclic, and the
// Engine's planned execution — must produce the same Q(D). A failing case
// is shrunk testing/quick-style (atoms, dependencies, then tuples are
// removed while the disagreement persists) and reported as a minimal query
// in cq syntax together with the database instance.
//
// The external test package lets the harness drive the public Engine, whose
// package depends on eval.
package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	cqbound "cqbound"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

// propertyIterations is the number of random query/database pairs checked
// (the CI acceptance floor is 200).
const propertyIterations = 220

const propertyBaseSeed = 20260729

func TestPropertyStrategiesAgree(t *testing.T) {
	iters := propertyIterations
	if testing.Short() {
		iters = 60
	}
	// Cycle through generation profiles so the harness covers acyclic
	// chains, dense cyclic bodies, repeated variables and FDs.
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
	}
	eng := cqbound.NewEngine()
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(propertyBaseSeed + int64(i)))
		q := datagen.RandomQuery(rng, profiles[i%len(profiles)])
		db := datagen.RandomDatabase(rng, q, dbProfiles[i%len(dbProfiles)])
		if msg := disagreement(eng, q, db); msg != "" {
			check := func(q *cq.Query, db *database.Database) string { return disagreement(eng, q, db) }
			q, db, msg = shrink(check, q, db, msg)
			t.Fatalf("iteration %d (seed %d): strategies disagree after shrinking: %s\n"+
				"minimal query:\n%s\nminimal database:\n%s",
				i, propertyBaseSeed+int64(i), msg, q, dumpDB(db))
		}
	}
}

// disagreement evaluates q under every strategy and returns a description
// of the first inconsistency ("" when all agree). Naive is the reference.
func disagreement(eng *cqbound.Engine, q *cq.Query, db *database.Database) string {
	ctx := context.Background()
	ref, _, err := eval.NaiveCtx(ctx, q, db)
	if err != nil {
		return fmt.Sprintf("naive: %v", err)
	}
	if ref.Arity() != len(q.Head.Vars) {
		return fmt.Sprintf("naive: output arity %d, head has %d positions", ref.Arity(), len(q.Head.Vars))
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
	out, _, err := eval.JoinProject(q, db)
	if msg := check("join-project", out, err); msg != "" {
		return msg
	}
	out, _, err = eval.GenericJoin(q, db)
	if msg := check("generic-join", out, err); msg != "" {
		return msg
	}
	if eval.IsAcyclic(q) {
		out, _, err = eval.Yannakakis(q, db)
		if msg := check("yannakakis", out, err); msg != "" {
			return msg
		}
	}
	out, _, err = eng.Evaluate(ctx, q, db)
	if msg := check("engine", out, err); msg != "" {
		return msg
	}
	return ""
}

// shrink greedily minimizes a failing (query, database) pair under the
// given check: it repeatedly tries dropping one body atom, one functional
// dependency, or one tuple, keeping any variant that still disagrees, until
// no single removal does (or the attempt budget runs out). It returns the
// smallest failing pair and its disagreement.
func shrink(check func(*cq.Query, *database.Database) string, q *cq.Query, db *database.Database, msg string) (*cq.Query, *database.Database, string) {
	budget := 3000
	for budget > 0 {
		improved := false
		// Drop a body atom (re-anchoring the head to surviving variables).
		for i := 0; i < len(q.Body) && budget > 0; i++ {
			cand := dropAtom(q, i)
			if cand == nil {
				continue
			}
			budget--
			if m := check(cand, db); m != "" {
				q, msg, improved = cand, m, true
				break
			}
		}
		if improved {
			continue
		}
		// Drop a functional dependency.
		for i := 0; i < len(q.FDs) && budget > 0; i++ {
			cand := q.Clone()
			cand.FDs = append(cand.FDs[:i], cand.FDs[i+1:]...)
			budget--
			if m := check(cand, db); m != "" {
				q, msg, improved = cand, m, true
				break
			}
		}
		if improved {
			continue
		}
		// Drop a tuple.
		for _, name := range db.Names() {
			r := db.Relation(name)
			for row := 0; row < r.Size() && budget > 0; row++ {
				cand := dropTuple(db, name, row)
				budget--
				if m := check(q, cand); m != "" {
					db, msg, improved = cand, m, true
					break
				}
			}
			if improved {
				break
			}
		}
		if !improved {
			break
		}
	}
	return q, db, msg
}

// dropAtom removes body atom i, restricting the head to variables that
// still occur (keeping at least one); nil when the variant is invalid or
// would be empty.
func dropAtom(q *cq.Query, i int) *cq.Query {
	if len(q.Body) <= 1 {
		return nil
	}
	cand := q.Clone()
	removed := cand.Body[i].Relation
	cand.Body = append(cand.Body[:i], cand.Body[i+1:]...)
	stillUsed := false
	for _, a := range cand.Body {
		if a.Relation == removed {
			stillUsed = true
			break
		}
	}
	if !stillUsed {
		var fds []cq.FD
		for _, f := range cand.FDs {
			if f.Relation != removed {
				fds = append(fds, f)
			}
		}
		cand.FDs = fds
	}
	bodyVars := make(map[cq.Variable]bool)
	for _, a := range cand.Body {
		for _, v := range a.Vars {
			bodyVars[v] = true
		}
	}
	var head []cq.Variable
	for _, v := range cand.Head.Vars {
		if bodyVars[v] {
			head = append(head, v)
		}
	}
	if len(head) == 0 {
		head = append(head, cand.Body[0].Vars[0])
	}
	cand.Head.Vars = head
	if cand.Validate() != nil {
		return nil
	}
	return cand
}

// dropTuple rebuilds db without row `row` of relation `name`.
func dropTuple(db *database.Database, name string, row int) *database.Database {
	out := database.New()
	for _, n := range db.Names() {
		src := db.Relation(n)
		if n != name {
			out.MustAdd(src.Clone(""))
			continue
		}
		dst := relation.New(src.Name, src.Attrs...)
		for i := 0; i < src.Size(); i++ {
			if i == row {
				continue
			}
			if _, err := dst.Insert(src.Row(i)); err != nil {
				panic(err)
			}
		}
		out.MustAdd(dst)
	}
	return out
}

func dumpDB(db *database.Database) string {
	var b strings.Builder
	for _, name := range db.Names() {
		fmt.Fprintf(&b, "%s\n", db.Relation(name))
	}
	return b.String()
}

// TestPropertyShrinkerProducesValidVariants pins the shrinker's own moves:
// every atom-drop variant it proposes must be a valid query, so a reported
// minimal counterexample is always runnable.
func TestPropertyShrinkerProducesValidVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		q := datagen.RandomQuery(rng, datagen.QueryParams{
			MaxVars: 5, MaxAtoms: 4, MaxArity: 3,
			HeadFraction: 0.6, RepeatRelationProb: 0.4, SimpleFDProb: 0.2,
		})
		for i := 0; i < len(q.Body); i++ {
			cand := dropAtom(q, i)
			if cand == nil {
				continue
			}
			if err := cand.Validate(); err != nil {
				t.Fatalf("dropAtom(%s, %d) produced invalid query %s: %v", q, i, cand, err)
			}
		}
	}
}
