package datagen

import (
	"fmt"
	"math/rand"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/relation"
)

// DBParams controls RandomDatabase.
type DBParams struct {
	// Tuples is the number of tuples drawn per relation (before FD repair
	// and deduplication).
	Tuples int
	// Universe is the number of distinct values drawn from.
	Universe int
	// ZipfS, when > 1, skews every drawn value Zipf-style with exponent s:
	// value u0 dominates, each later value is polynomially rarer. This is
	// the hot-key generator behind the skewed-data tests — one value
	// absorbing a large fraction of a column hashes all its rows into a
	// single shard, whose part then carries most of a join's probes. 0 (or
	// anything <= 1) keeps the uniform draw.
	ZipfS float64
}

// drawer returns the value-index generator the params select: uniform over
// the universe, or Zipf-distributed when ZipfS > 1. Deterministic given
// rng, like everything in this package.
func (p DBParams) drawer(rng *rand.Rand) func() int {
	if p.ZipfS > 1 && p.Universe > 1 {
		z := rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Universe-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(p.Universe) }
}

// RandomDatabase builds a database for q's body relations whose instance
// satisfies every functional dependency declared on q. Tuples are drawn
// uniformly and then repaired: for each dependency, right-hand values are
// rewritten to the value of the first tuple sharing the left-hand key;
// repair passes repeat until a fixpoint. The result always passes
// db.CheckFDs(q).
func RandomDatabase(rng *rand.Rand, q *cq.Query, p DBParams) *database.Database {
	if p.Tuples < 1 {
		p.Tuples = 1
	}
	if p.Universe < 1 {
		p.Universe = 1
	}
	val := func(i int) relation.Value {
		return relation.V(fmt.Sprintf("u%d", i))
	}
	fdsByRel := make(map[string][]cq.FD)
	for _, f := range q.FDs {
		fdsByRel[f.Relation] = append(fdsByRel[f.Relation], f)
	}
	draw := p.drawer(rng)
	db := database.New()
	arities := relArities(q)
	// First-occurrence body order, not map order: the drawer consumes rng
	// per relation, so the pairing of draws to relations must be
	// deterministic for a seed to reproduce the same instance.
	for _, rel := range q.BodyRelations() {
		arity := arities[rel]
		rows := make([][]relation.Value, p.Tuples)
		for i := range rows {
			row := make([]relation.Value, arity)
			for j := range row {
				row[j] = val(draw())
			}
			rows[i] = row
		}
		// FD repair, phase 1 (rewrite): right-hand values are rewritten to
		// the value of the first tuple sharing the left-hand key. Rewrites
		// can interact across dependencies, so the pass count is capped.
		for pass := 0; pass < 8*(len(fdsByRel[rel])+1); pass++ {
			changed := false
			for _, fd := range fdsByRel[rel] {
				canon := make(map[string]relation.Value)
				for _, row := range rows {
					k := fdKey(row, fd.From)
					if want, ok := canon[k]; ok {
						if row[fd.To-1] != want {
							row[fd.To-1] = want
							changed = true
						}
					} else {
						canon[k] = row[fd.To-1]
					}
				}
			}
			if !changed {
				break
			}
		}
		// FD repair, phase 2 (delete): drop any tuple still conflicting with
		// an earlier one. Deletion is monotone, so this always converges.
		for {
			deleted := false
			for _, fd := range fdsByRel[rel] {
				canon := make(map[string]relation.Value)
				kept := rows[:0]
				for _, row := range rows {
					k := fdKey(row, fd.From)
					if want, ok := canon[k]; ok && row[fd.To-1] != want {
						deleted = true
						continue
					} else if !ok {
						canon[k] = row[fd.To-1]
					}
					kept = append(kept, row)
				}
				rows = kept
			}
			if !deleted {
				break
			}
		}
		r := relation.New(rel, attrNames(arity)...)
		for _, row := range rows {
			r.MustInsert(row...)
		}
		db.MustAdd(r)
	}
	if err := db.CheckFDs(q); err != nil {
		// The repair loop above converges because values only move to
		// first-seen canonical ones; reaching this indicates a bug.
		panic(fmt.Sprintf("datagen: FD repair failed: %v", err))
	}
	return db
}

func relArities(q *cq.Query) map[string]int {
	return q.RelationArities()
}

func attrNames(arity int) []string {
	out := make([]string, arity)
	for i := range out {
		out[i] = fmt.Sprintf("a%d", i+1)
	}
	return out
}

func fdKey(row []relation.Value, from []int) string {
	key := make(relation.Tuple, len(from))
	for i, p := range from {
		key[i] = row[p-1]
	}
	return key.Key()
}

// EdgeDB builds a database of random binary edge relations (each `name`
// gets `edges` draws over a universe of the given size; set semantics
// dedups collisions). It is the workload generator the benchmark CLIs
// share: graph-pattern queries (triangles, stars, paths, cycles) over it
// scale linearly in `edges` while `universe` controls the join fanout
// edges/universe.
func EdgeDB(rng *rand.Rand, names []string, edges, universe int) *database.Database {
	db := database.New()
	for _, name := range names {
		r := relation.New(name, "a", "b")
		for i := 0; i < edges; i++ {
			r.Add(fmt.Sprintf("u%d", rng.Intn(universe)), fmt.Sprintf("u%d", rng.Intn(universe)))
		}
		db.MustAdd(r)
	}
	return db
}

// ZipfEdgeDB is EdgeDB with Zipf-distributed endpoints: both columns draw
// node ids with exponent s (> 1), so a handful of hub nodes carry most of
// the edges. Joining on a hub column hashes a large fraction of each
// relation into one shard, whose part then carries most of the probes.
func ZipfEdgeDB(rng *rand.Rand, names []string, edges, universe int, s float64) *database.Database {
	draw := DBParams{Universe: universe, ZipfS: s}.drawer(rng)
	db := database.New()
	for _, name := range names {
		r := relation.New(name, "a", "b")
		for i := 0; i < edges; i++ {
			r.Add(fmt.Sprintf("u%d", draw()), fmt.Sprintf("u%d", draw()))
		}
		db.MustAdd(r)
	}
	return db
}
