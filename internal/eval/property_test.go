// The property sweep: random conjunctive queries (varying arity, repeated
// variables, projections, cyclicity, functional dependencies) meet random
// databases, and every evaluation — join-project, generic join,
// Yannakakis when acyclic and the Engine, called bare, committed through
// transactions or served over HTTP, traced or not — must answer what
// Naive answers. One generator makes the pairs; propertyMatrix says in
// which configurations each pair runs. A failing pair is shrunk
// testing/quick-style (atoms, dependencies, then tuples are removed while
// the disagreement persists) and reported as a minimal query in cq syntax
// with its database, its seed and its cell.
//
// The external test package lets the sweep drive the public Engine and
// Server, whose package depends on eval.
package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

// propertyIterations is the number of random query/database pairs checked
// (the CI acceptance floor is 200); -short checks 60.
const propertyIterations = 220

const propertyBaseSeed = 20260729

// The generator: pair i draws its query from queryProfiles[i mod 4] and
// its database from dbProfiles[i mod 5], so the profiles cover acyclic
// chains, dense cyclic bodies, repeated variables, FDs and skewed data.
var (
	queryProfiles = []datagen.QueryParams{
		{MaxVars: 5, MaxAtoms: 4, MaxArity: 3, HeadFraction: 0.7, RepeatRelationProb: 0.3, SimpleFDProb: 0.15},
		{MaxVars: 3, MaxAtoms: 5, MaxArity: 2, HeadFraction: 0.5, RepeatRelationProb: 0.6},
		{MaxVars: 6, MaxAtoms: 3, MaxArity: 4, HeadFraction: 0.9, RepeatRelationProb: 0.2, CompoundFDProb: 0.3},
		{MaxVars: 2, MaxAtoms: 3, MaxArity: 3, HeadFraction: 0.6, RepeatRelationProb: 0.5, SimpleFDProb: 0.3},
	}
	dbProfiles = []datagen.DBParams{
		{Tuples: 12, Universe: 6},
		{Tuples: 25, Universe: 4},
		{Tuples: 6, Universe: 12},
		// Zipf-skewed: one value dominates every column. Row ranges split
		// its rows evenly, but a hash projection's exchange routes most of
		// them into one part.
		{Tuples: 30, Universe: 8, ZipfS: 1.7},
		{Tuples: 20, Universe: 15, ZipfS: 2.5},
	}
)

// propertyPair returns pair i and the seed it was drawn from.
func propertyPair(i int) (int64, *cq.Query, *database.Database) {
	seed := propertyBaseSeed + int64(i)
	rng := rand.New(rand.NewSource(seed))
	q := datagen.RandomQuery(rng, queryProfiles[i%len(queryProfiles)])
	return seed, q, datagen.RandomDatabase(rng, q, dbProfiles[i%len(dbProfiles)])
}

// shardCounts are the part counts the sweep cycles through: P=1 (the
// degenerate single-part view), tiny P, P larger than many of the random
// databases' relations (forcing empty row ranges and empty exchange
// parts).
var shardCounts = []int{1, 2, 3, 5, 16}

// spillBudgetBytes is deliberately tiny against the sweep's databases
// (tens of tuples × up to 4 columns × 4 bytes each): most pairs hold at
// most one or two shards resident, so eviction fires inside plans, not
// just between them.
const spillBudgetBytes = 256

// The load paths by which a cell's database reaches the evaluators.
const (
	loadStatic = "static" // handed to the executors and the Engine as built
	loadTxn    = "txn"    // committed through Engine transactions
	loadHTTP   = "http"   // committed and read through a Server over HTTP
)

// nilOptions is the shards value of the cell that runs the bare executors
// with nil options and a default Engine.
const nilOptions = 0

// propertyCell is one configuration a pair runs in.
type propertyCell struct {
	load   string
	traced bool // static: a tracer in every executor's options, the Engine through EvaluateTraced
	budget int  // memory budget in bytes, 0 unlimited
	shards int  // partition count, or nilOptions
	batch  int  // the bare executors' batch size (the Engine runs at the default)
	stride int  // static: 1 keeps the generated values, spreadStride spreads them
}

func (c propertyCell) String() string {
	return fmt.Sprintf("load=%s traced=%v budget=%d shards=%d batch=%d stride=%d",
		c.load, c.traced, c.budget, c.shards, c.batch, c.stride)
}

// propertyMatrix returns the cells pair i runs in one slice of the sweep.
// Pair i takes shardCounts[i mod 5], batch size {1, 7, 1024}[i mod 3] and
// stride {1, spreadStride}[i mod 2]; the lengths are pairwise coprime, so
// every combination of them recurs. Threshold zero splits every scan into
// row ranges whatever its size, so empty parts and P=1 occur as the data
// produces them; batch size 1 hands single-row batches across every stage
// boundary, 7 never divides the relations evenly, 1024 is the default;
// the generated values' small domains put most projections on the dense
// bitmap, spread ones dedup by hash, exchanging when they drop the parts'
// key. A new axis is one field of propertyCell, its values here and its
// use where a cell runs.
func propertyMatrix(slice string, i int) []propertyCell {
	c := propertyCell{load: loadStatic, shards: shardCounts[i%len(shardCounts)],
		batch: []int{1, 7, 1024}[i%3], stride: []int{1, spreadStride}[i%2]}
	switch slice {
	case "nil-options":
		return []propertyCell{{load: loadStatic, shards: nilOptions, stride: 1}}
	case "executors": // unlimited and at the forcing budget
		forced := c
		forced.budget = spillBudgetBytes
		return []propertyCell{c, forced}
	case "traced":
		// Every pair runs traced as built; odd pairs run spread as well,
		// so that a hash projection's exchange runs under tracing too.
		c.traced, c.budget = true, spillBudgetBytes
		if c.stride > 1 {
			asBuilt := c
			asBuilt.stride = 1
			return []propertyCell{asBuilt, c}
		}
	case loadTxn, loadHTTP:
		// One scenario at the forcing budget, whose readers alternate
		// traced and untraced; the other paths intern strings into the
		// engine's own dictionary, so they take no stride, and the Engine
		// sets the batch size.
		c = propertyCell{load: slice, traced: true, budget: spillBudgetBytes, shards: c.shards}
	default:
		panic("unknown slice " + slice)
	}
	return []propertyCell{c}
}

// sweep runs every pair through the cells of one slice of propertyMatrix,
// so every slice evaluates every pair. The first disagreement fails the
// test, shrunk and reported with its seed and cell. It returns the rig,
// whose counters the caller checks for what its slice exists for, and the
// number of pairs; the rig closes when the test ends. The five tests below
// run the five slices.
func sweep(t *testing.T, slice string) (*propertyRig, int) {
	iters := propertyIterations
	if testing.Short() {
		iters = 60
	}
	rig := newPropertyRig(t) // its spill files live under t.TempDir
	t.Cleanup(rig.close)
	for i := 0; i < iters; i++ {
		seed, q, db := propertyPair(i)
		for _, c := range propertyMatrix(slice, i) {
			if msg := rig.disagreement(c, seed, q, db); msg != "" {
				check := func(q *cq.Query, db *database.Database) string { return rig.disagreement(c, seed, q, db) }
				q, db, msg = shrink(check, q, db, msg)
				t.Fatalf("iteration %d (seed %d, %s): execution disagrees with naive after shrinking: %s\n"+
					"minimal query:\n%s\nminimal database:\n%s", i, seed, c, msg, q, dumpDB(db))
			}
		}
	}
	return rig, iters
}

// TestPropertyStrategiesAgree runs the nil-options cell: join-project,
// generic join and Yannakakis called with nil options, and a default
// Engine. Every Engine must stream. It logs the default Engine's plans
// per strategy and the pairs whose answer outgrew Engine.BoundRows.
func TestPropertyStrategiesAgree(t *testing.T) {
	rig, iters := sweep(t, "nil-options")
	rig.checkEnginesStreamed()
	eng := rig.cellEngine(propertyCell{shards: nilOptions})
	plans, overBound := map[string]int{}, 0
	for i := 0; i < iters; i++ {
		_, q, db := propertyPair(i)
		strategy, bound, _, err := eng.PlanInfo(q, db)
		if err != nil {
			t.Fatal(err)
		}
		plans[strategy]++
		if ref, _, _ := eval.NaiveCtx(context.Background(), q, db); float64(ref.Size()) > bound {
			overBound++
		}
	}
	t.Logf("default Engine plans over %d pairs: %d yannakakis, %d project-early, %d generic-join; %d pairs answered more rows than Engine.BoundRows",
		iters, plans["yannakakis"], plans["project-early"], plans["generic-join"], overBound)
}

// TestPropertyExecutorsAgree runs the untraced static cells at a
// part count: shards × batch × budget × stride, every executor and the
// cell's Engine. Every way an operator runs must fire, and the governors
// must spill (checkExercised).
func TestPropertyExecutorsAgree(t *testing.T) {
	rig, _ := sweep(t, "executors")
	rig.checkExercised()
}

// TestPropertyTracedAgrees runs the traced static cells: a tracer in
// every executor's options and the Engine through EvaluateTraced, at the
// forcing budget, every pair as built and odd pairs spread too. Every
// traced run must leave a span tree, every way an operator runs must fire
// under tracing, and the traced governors must spill, so tracing is
// checked observing eviction and reload.
func TestPropertyTracedAgrees(t *testing.T) {
	rig, _ := sweep(t, "traced")
	rig.checkExercised()
}

// TestPropertyIngestSnapshotsAgree runs the txn cells: each pair's
// database committed through Engine transactions beside a concurrent
// writer, read live and pinned, traced and untraced, at the forcing
// budget.
func TestPropertyIngestSnapshotsAgree(t *testing.T) {
	sweep(t, loadTxn)
}

// TestPropertyServeSnapshotsAgree runs the txn scenario through a Server
// over HTTP: the http cells. The servers must leave no goroutine behind.
// The baseline is the count once it has not fallen for 100 ms, as the
// goroutines of earlier tests' Engines may still be draining.
func TestPropertyServeSnapshotsAgree(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	for quiet := 0; quiet < 10; quiet++ {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < goroutines {
			goroutines, quiet = n, -1
		}
	}
	sweep(t, loadHTTP)
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d goroutines after the sweep, %d before\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// disagreement runs cell c on the pair and describes its first
// inconsistency with Naive ("" when every evaluation agrees).
func (r *propertyRig) disagreement(c propertyCell, seed int64, q *cq.Query, db *database.Database) string {
	if c.load == loadStatic {
		return r.staticDisagreement(c, q, db)
	}
	return r.loadDisagreement(c, seed, q, db)
}

// shrink greedily minimizes a failing (query, database) pair under the
// given check: it keeps the first variant one removal away — a body atom,
// a functional dependency or a tuple fewer — that still disagrees, until
// none does (or the attempt budget runs out). It returns the smallest
// failing pair and its disagreement.
func shrink(check func(*cq.Query, *database.Database) string, q *cq.Query, db *database.Database, msg string) (*cq.Query, *database.Database, string) {
	for budget, improved := 3000, true; improved && budget > 0; {
		improved = false
		for _, v := range variants(q, db) {
			if budget--; budget < 0 {
				break
			}
			if m := check(v.q, v.db); m != "" {
				q, db, msg, improved = v.q, v.db, m, true
				break
			}
		}
	}
	return q, db, msg
}

// variant is a candidate pair of the shrinker.
type variant struct {
	q  *cq.Query
	db *database.Database
}

// variants lists the pairs one removal away from (q, db), atoms first
// (re-anchoring the head to surviving variables), then dependencies,
// then tuples.
func variants(q *cq.Query, db *database.Database) []variant {
	var out []variant
	for i := range q.Body {
		if cand := dropAtom(q, i); cand != nil {
			out = append(out, variant{cand, db})
		}
	}
	for i := range q.FDs {
		cand := q.Clone()
		cand.FDs = append(cand.FDs[:i], cand.FDs[i+1:]...)
		out = append(out, variant{cand, db})
	}
	for _, name := range db.Names() {
		for row := 0; row < db.Relation(name).Size(); row++ {
			out = append(out, variant{q, dropTuple(db, name, row)})
		}
	}
	return out
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
