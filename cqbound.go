// Package cqbound is a Go implementation of Gottlob, Lee, Valiant and
// Valiant, "Size and Treewidth Bounds for Conjunctive Queries" (PODS 2009 /
// JACM). It computes, for a conjunctive query with functional dependencies:
//
//   - the chase (Definition 2.3) and the color number C(chase(Q))
//     (Definitions 3.1–3.2), by the method matching the dependency class:
//     the Proposition 3.6 LP, the Theorem 4.4 dependency elimination, or the
//     Proposition 6.10 entropy LP;
//   - tight worst-case size bounds |Q(D)| ≤ rmax(D)^C(chase(Q))
//     (Proposition 4.1, Theorem 4.4) with executable witness databases
//     (Proposition 4.5) and the Shannon-inequality upper bound s(Q)
//     (Proposition 6.9);
//   - the polynomial size-increase decision (Theorems 6.1 and 7.2);
//   - treewidth machinery: decompositions, exact/heuristic treewidth, the
//     constructive keyed-join bound j(ω+1)−1 (Theorem 5.5), and the
//     preservation characterizations (Proposition 5.9, Theorem 5.10);
//   - the information-theoretic toolkit of Section 6 (I-measure atoms,
//     empirical entropies, knitted complexity).
//
// The root package re-exports the library's public API; subsystems live in
// internal packages. Start with Parse and Analyze:
//
//	q, _ := cqbound.Parse("Q(X,Y,Z) <- R(X,Y), R(X,Z), R(Y,Z).")
//	a, _ := cqbound.Analyze(q)
//	fmt.Println(a.Summary()) // C = 3/2, size bound rmax^{3/2}, ...
//
// For evaluation, use an Engine: it selects a strategy from the query's
// structure (Yannakakis when α-acyclic, project-early when C(chase(Q)) is
// small, worst-case optimal generic join otherwise), orders joins by
// cardinality, caches per-query analysis, and honors context cancellation:
//
//	eng := cqbound.NewEngine()
//	p, _ := eng.Explain(q)                    // strategy + paper-derived rationale
//	out, stats, _ := eng.Evaluate(ctx, q, db) // planned execution
//
// Engine.EvaluateStrategy forces a specific algorithm instead.
package cqbound

import (
	"math/big"

	"cqbound/internal/chase"
	"cqbound/internal/coloring"
	"cqbound/internal/construct"
	"cqbound/internal/core"
	"cqbound/internal/cover"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/entropy"
	"cqbound/internal/eval"
	"cqbound/internal/graph"
	"cqbound/internal/hornsat"
	"cqbound/internal/relation"
	"cqbound/internal/sat"
	"cqbound/internal/treewidth"
)

// Query model (internal/cq).
type (
	// Query is a conjunctive query in datalog-rule form with functional
	// dependencies.
	Query = cq.Query
	// Atom is a relational atom R(X,Y,...).
	Atom = cq.Atom
	// Variable is a query variable.
	Variable = cq.Variable
	// FD is a positional functional dependency.
	FD = cq.FD
)

// Parse reads a query from its textual form ("Q(X,Y) <- R(X,Z), S(Z,Y). key
// S[1].").
func Parse(text string) (*Query, error) { return cq.Parse(text) }

// MustParse is Parse but panics on error.
func MustParse(text string) *Query { return cq.MustParse(text) }

// Chase computes chase(Q) per Definition 2.3 (Fact 2.4: the result computes
// the same answers on every database).
func Chase(q *Query) *Query { return chase.Chase(q).Query }

// Analysis and the full pipeline (internal/core).
type (
	// Analysis is the complete per-query report.
	Analysis = core.Analysis
	// FDClass classifies the effective dependencies of chase(Q).
	FDClass = core.FDClass
	// TreewidthVerdict is the treewidth-preservation outcome.
	TreewidthVerdict = core.TreewidthVerdict
)

// Re-exported enum values.
const (
	NoFDs       = core.NoFDs
	SimpleFDs   = core.SimpleFDs
	CompoundFDs = core.CompoundFDs

	TWPreserved = core.TWPreserved
	TWUnbounded = core.TWUnbounded
	TWOpen      = core.TWOpen
)

// Analyze runs the whole paper on one query: chase, color number, size
// bounds, size-increase decision, covers, and the treewidth verdict.
func Analyze(q *Query) (*Analysis, error) { return core.Analyze(q) }

// Colorings (internal/coloring).
type (
	// Coloring labels query variables with color sets (Definition 3.1).
	Coloring = coloring.Coloring
	// ColorSet is a set of colors.
	ColorSet = coloring.ColorSet
)

// ValidateColoring checks Definition 3.1 for q.
func ValidateColoring(q *Query, l Coloring) error { return coloring.Validate(q, l) }

// ColorNumberOf returns the color number of a specific coloring
// (Definition 3.2).
func ColorNumberOf(q *Query, l Coloring) (*big.Rat, error) { return coloring.Number(q, l) }

// ColorNumber computes C(chase(Q)) and a witness coloring of chase(Q),
// choosing the algorithm by dependency class (see Analyze for the full
// report).
func ColorNumber(q *Query) (*big.Rat, Coloring, error) {
	a, err := core.Analyze(q)
	if err != nil {
		return nil, nil, err
	}
	return a.ColorNumber, a.Coloring, nil
}

// FractionalEdgeCover returns ρ*(Q) of Definition 3.5.
func FractionalEdgeCover(q *Query) (*big.Rat, error) {
	r, err := cover.FractionalEdgeCover(q)
	if err != nil {
		return nil, err
	}
	return r.Rho, nil
}

// SizeBoundExponent returns s(Q), the Proposition 6.9 Shannon-LP upper
// bound on the worst-case size-increase exponent.
func SizeBoundExponent(q *Query) (*big.Rat, error) { return entropy.SizeBoundExponent(q) }

// SizeIncreasePossible decides in polynomial time whether some database
// makes |Q(D)| > rmax(D) (Theorems 6.1 and 7.2).
func SizeIncreasePossible(q *Query) bool { return hornsat.DecideSizeIncrease(q).Increase }

// Databases and evaluation (internal/relation, internal/database,
// internal/eval).
type (
	// Relation is an in-memory relation with set semantics.
	Relation = relation.Relation
	// Tuple is a database tuple.
	Tuple = relation.Tuple
	// Value is a field value: an ID interned in the value dictionary. Build
	// one with V; recover the text with Value.String.
	Value = relation.Value
	// Dict is the bidirectional string ↔ Value dictionary.
	Dict = relation.Dict
	// Database is a named collection of relations.
	Database = database.Database
	// EvalStats reports evaluation statistics.
	EvalStats = eval.Stats
)

// V interns a string as a Value in the process-wide default dictionary —
// a convenience for single-engine use. Relations also intern directly from
// strings via Relation.Add (through their own dictionary), and an Engine's
// transactions intern in the engine's private dictionary (Engine.Dict).
func V(s string) Value { return relation.V(s) }

// ValueDict returns the process-wide default dictionary: the one V,
// Value.String, and every free-standing relation intern in. Engines own
// private dictionaries (Engine.Dict); values from different dictionaries
// are not comparable.
func ValueDict() *Dict { return relation.DefaultDict() }

// NewDict returns a fresh, empty dictionary for callers that build
// relation sets isolated from the process-wide default.
func NewDict() *Dict { return relation.NewDict() }

// NewRelation creates an empty relation with the given attribute names,
// interning in the default dictionary.
func NewRelation(name string, attrs ...string) *Relation { return relation.New(name, attrs...) }

// NewRelationIn is NewRelation with an explicit dictionary: Add interns
// there, and String resolves through it.
func NewRelationIn(name string, d *Dict, attrs ...string) *Relation {
	return relation.NewIn(name, d, attrs...)
}

// RelationsEqual reports whether two relations hold the same set of tuples
// (attribute names are ignored; arity must match).
func RelationsEqual(r, s *Relation) bool { return relation.Equal(r, s) }

// NewDatabase creates an empty database.
func NewDatabase() *Database { return database.New() }

// NewDatabaseIn creates an empty database whose relations intern in the
// given dictionary.
func NewDatabaseIn(d *Dict) *Database { return database.NewIn(d) }

// IsAcyclic reports whether the query's body hypergraph is α-acyclic
// (GYO reduction).
func IsAcyclic(q *Query) bool { return eval.IsAcyclic(q) }

// WitnessDatabase builds the Proposition 4.5 worst-case database for a
// (chased) query and a valid coloring: |Q(D)| = M^|colors(head)|.
func WitnessDatabase(q *Query, l Coloring, m int) (*Database, error) {
	return construct.ProductWitness(q, l, m)
}

// Treewidth machinery (internal/graph, internal/treewidth).
type (
	// Graph is an undirected labeled graph.
	Graph = graph.Graph
	// Decomposition is a tree decomposition.
	Decomposition = treewidth.Decomposition
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// GaifmanGraph returns G(D) per Section 2.
func GaifmanGraph(db *Database) *Graph { return db.GaifmanGraph() }

// Treewidth computes the exact treewidth when feasible, or a
// [lower, upper] interval (see internal/treewidth.Treewidth).
func Treewidth(g *Graph) (lower, upper int, exact bool, err error) {
	return treewidth.Treewidth(g)
}

// ValidateDecomposition checks the three conditions of a tree
// decomposition.
func ValidateDecomposition(g *Graph, d *Decomposition) error { return treewidth.Validate(g, d) }

// TwoColoringExists decides whether chase(Q) has a valid 2-coloring with
// color number 2 — the exact condition for unbounded treewidth growth
// (Proposition 5.9, Theorem 5.10; NP-complete with compound dependencies,
// Proposition 7.3).
func TwoColoringExists(q *Query) (Coloring, bool) {
	dec := sat.DecideTwoColoring(q)
	return dec.Witness, dec.Exists
}
