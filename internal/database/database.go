// Package database groups named relations into a finite structure
// D = (U_D, R1, ..., Rn) as in Section 2, and extracts the measures the
// paper studies: rmax(D) (the largest relation a query reads) and the
// Gaifman graph G(D), whose treewidth defines tw(D).
package database

import (
	"fmt"
	"sort"

	"cqbound/internal/cq"
	"cqbound/internal/graph"
	"cqbound/internal/relation"
)

// Database is a set of uniquely named relations. A database built by New
// is mutable and resolves values through the process-wide dictionary; a
// database published by an Engine commit is an immutable epoch snapshot —
// Epoch reports which — holding frozen relations interned in the engine's
// private dictionary.
type Database struct {
	rels  map[string]*relation.Relation
	order []string

	// dict is the dictionary the stored relations intern in; nil means the
	// process-wide default. epoch is the engine-assigned snapshot number;
	// 0 marks a free-standing (non-epoch) database.
	dict  *relation.Dict
	epoch uint64
}

// New returns an empty database.
func New() *Database {
	return &Database{rels: make(map[string]*relation.Relation)}
}

// NewIn returns an empty database whose relations intern in the given
// dictionary — the constructor the Engine uses for its epoch snapshots.
func NewIn(dict *relation.Dict) *Database {
	d := New()
	d.dict = dict
	return d
}

// Epoch returns the engine-assigned snapshot number, 0 for free-standing
// databases built by New.
func (d *Database) Epoch() uint64 { return d.epoch }

// Next returns a successor snapshot at the given epoch: relations in
// replace override (or, mapped to nil, drop) the current ones by name,
// entries under names the database does not hold yet are appended in
// sorted name order, and everything else is carried over by pointer. The
// receiver is unchanged — pinned readers keep their frozen view.
func (d *Database) Next(epoch uint64, replace map[string]*relation.Relation) *Database {
	out := &Database{
		rels:  make(map[string]*relation.Relation, len(d.rels)+len(replace)),
		dict:  d.dict,
		epoch: epoch,
	}
	for _, name := range d.order {
		nr, ok := replace[name]
		if !ok {
			nr = d.rels[name]
		}
		if nr == nil {
			continue
		}
		out.rels[name] = nr
		out.order = append(out.order, name)
	}
	var added []string
	for name, nr := range replace {
		if _, existing := d.rels[name]; existing || nr == nil {
			continue
		}
		added = append(added, name)
	}
	sort.Strings(added)
	for _, name := range added {
		out.rels[name] = replace[name]
		out.order = append(out.order, name)
	}
	return out
}

// Add registers a relation; names must be unique.
func (d *Database) Add(r *relation.Relation) error {
	if _, ok := d.rels[r.Name]; ok {
		return fmt.Errorf("database: duplicate relation %s", r.Name)
	}
	d.rels[r.Name] = r
	d.order = append(d.order, r.Name)
	return nil
}

// MustAdd is Add but panics on error.
func (d *Database) MustAdd(r *relation.Relation) {
	if err := d.Add(r); err != nil {
		panic(err)
	}
}

// Relation returns the named relation, or nil.
func (d *Database) Relation(name string) *relation.Relation { return d.rels[name] }

// Names returns the relation names in insertion order.
func (d *Database) Names() []string { return append([]string(nil), d.order...) }

// RMax returns rmax(D) with respect to query q: the number of tuples in the
// largest relation among those referenced by q's body (Section 2). It
// returns an error when the body references a missing relation or the arity
// disagrees.
func (d *Database) RMax(q *cq.Query) (int, error) {
	max := 0
	seen := make(map[string]bool)
	for _, a := range q.Body {
		if seen[a.Relation] {
			continue
		}
		seen[a.Relation] = true
		r := d.rels[a.Relation]
		if r == nil {
			return 0, fmt.Errorf("database: query reads missing relation %s", a.Relation)
		}
		if r.Arity() != a.Arity() {
			return 0, fmt.Errorf("database: relation %s has arity %d, query uses %d", a.Relation, r.Arity(), a.Arity())
		}
		if r.Size() > max {
			max = r.Size()
		}
	}
	return max, nil
}

// Universe returns the set of values appearing in any relation, sorted by
// their interned strings.
func (d *Database) Universe() []relation.Value {
	set := make(map[relation.Value]bool)
	for _, name := range d.order {
		r := d.rels[name]
		for c := 0; c < r.Arity(); c++ {
			for _, v := range r.Column(c) {
				set[v] = true
			}
		}
	}
	out := make([]relation.Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	relation.SortByStringIn(d.Dict(), out)
	return out
}

// Dict returns the dictionary that interns every value stored in the
// database's relations. Relations must share one dictionary for joins
// across them to compare IDs meaningfully: free-standing databases share
// the process-wide dictionary, while epoch snapshots carry their owning
// Engine's private one.
func (d *Database) Dict() *relation.Dict {
	if d.dict != nil {
		return d.dict
	}
	return relation.DefaultDict()
}

// CheckFDs verifies that the instance satisfies every functional dependency
// declared on q, returning the first violation found.
func (d *Database) CheckFDs(q *cq.Query) error {
	for _, fd := range q.FDs {
		r := d.rels[fd.Relation]
		if r == nil {
			return fmt.Errorf("database: FD %s on missing relation", fd)
		}
		from := make([]int, len(fd.From))
		for i, p := range fd.From {
			from[i] = p - 1
		}
		if !r.CheckFD(from, fd.To-1) {
			return fmt.Errorf("database: instance violates %s", fd)
		}
	}
	return nil
}

// GaifmanGraph returns G(D): one vertex per universe element, an edge
// between two distinct elements that occur together in some tuple.
func (d *Database) GaifmanGraph() *graph.Graph {
	rels := make([]*relation.Relation, 0, len(d.order))
	for _, name := range d.order {
		rels = append(rels, d.rels[name])
	}
	return GaifmanOf(rels...)
}

// GaifmanOf returns the Gaifman graph of the listed relations, written
// G(⟨R, S⟩) in the paper.
func GaifmanOf(rels ...*relation.Relation) *graph.Graph {
	g := graph.New()
	for _, r := range rels {
		if r == nil {
			continue
		}
		dict := r.Dict()
		r.Each(func(t relation.Tuple) bool {
			for i := range t {
				g.EnsureVertex(dict.String(t[i]))
			}
			for i := 0; i < len(t); i++ {
				for j := i + 1; j < len(t); j++ {
					if t[i] != t[j] {
						g.AddEdgeLabels(dict.String(t[i]), dict.String(t[j]))
					}
				}
			}
			return true
		})
	}
	return g
}
