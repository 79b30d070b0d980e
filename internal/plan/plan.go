package plan

// Strategy selection; package documentation lives in doc.go.

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"strings"

	"cqbound/internal/core"
	"cqbound/internal/cover"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
)

// Strategy identifies an evaluation algorithm.
type Strategy int

// Available strategies.
const (
	// StrategyYannakakis: semijoin reduction over a join tree; only valid
	// for α-acyclic queries.
	StrategyYannakakis Strategy = iota
	// StrategyProjectEarly: left-deep joins with eager projection along a
	// planner-chosen atom order (Corollary 4.8).
	StrategyProjectEarly
	// StrategyGenericJoin: worst-case optimal variable-at-a-time join.
	StrategyGenericJoin
)

func (s Strategy) String() string {
	switch s {
	case StrategyYannakakis:
		return "yannakakis"
	case StrategyProjectEarly:
		return "project-early"
	case StrategyGenericJoin:
		return "generic-join"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// projectEarlyMaxColor is the exclusive upper bound on C(chase(Q)) under
// which a cyclic query still gets the project-early plan: below exponent 2
// the Corollary 4.8 cost O(rmax^{C+1}) stays under the cubic cost a generic
// join may pay on adversarial inputs.
var projectEarlyMaxColor = big.NewRat(2, 1)

// Plan records the chosen strategy together with the structural facts that
// justified it.
type Plan struct {
	// Strategy is the selected evaluation algorithm.
	Strategy Strategy
	// AtomOrder is the join order for StrategyProjectEarly as indices into
	// the query body; nil means body order (the other strategies order
	// their own work). Filled by OrderAtoms when a database is available.
	AtomOrder []int
	// Acyclic reports whether the body hypergraph is α-acyclic.
	Acyclic bool
	// Class is the dependency class of chase(Q).
	Class core.FDClass
	// ColorNumber is C(chase(Q)) when selection computed it; nil when the
	// class is compound (pricing it would need the entropy LP).
	ColorNumber *big.Rat
	// RhoStar is the fractional edge cover number ρ*(Q), the AGM exponent
	// backing the generic-join cost bound; nil when its LP failed.
	RhoStar *big.Rat
	// Rationale explains the selection in terms of the paper's results.
	Rationale string
}

// String renders the plan for humans: strategy, order, and rationale.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s", p.Strategy)
	if p.AtomOrder != nil {
		fmt.Fprintf(&b, "\natom order: %v", p.AtomOrder)
	}
	fmt.Fprintf(&b, "\nrationale: %s", p.Rationale)
	return b.String()
}

// Choose selects the evaluation strategy for q from structural facts alone:
// the GYO acyclicity test and, for cyclic queries, the chase and the
// polynomial color-number stage. It never touches data and never solves the
// entropy LP.
func Choose(q *cq.Query) (*Plan, error) {
	st, err := core.StructureOf(q)
	if err != nil {
		return nil, err
	}
	p := &Plan{Acyclic: eval.IsAcyclic(q), Class: st.Class}
	if r, err := cover.FractionalEdgeCover(q); err == nil {
		p.RhoStar = r.Rho
	}
	if p.Acyclic {
		p.Strategy = StrategyYannakakis
		p.Rationale = "α-acyclic (GYO reduction succeeds): Yannakakis' semijoin " +
			"algorithm projects each subtree result onto its parent interface plus the head, " +
			"O(|D| + |Q(D)|) when the head keeps every variable"
		return p, nil
	}
	ci, err := core.ColorNumberStage(st, false)
	if err != nil {
		return nil, err
	}
	p.ColorNumber = ci.Number
	if ci.Number != nil && ci.Tight && ci.Number.Cmp(projectEarlyMaxColor) < 0 {
		p.Strategy = StrategyProjectEarly
		p.Rationale = fmt.Sprintf("cyclic with small tight color number C(chase(Q)) = %s < 2 "+
			"(Thm 4.4): the Corollary 4.8 project-early plan costs O(|var(Q)|²·|Q|²·rmax^{%s+1}) "+
			"and its output never exceeds rmax^C",
			ci.Number.RatString(), ci.Number.RatString())
		return p, nil
	}
	p.Strategy = StrategyGenericJoin
	switch {
	case ci.Number == nil:
		p.Rationale = "cyclic with compound dependencies: pricing C(chase(Q)) needs the " +
			"exponential entropy LP (Prop 6.10), so fall back to the worst-case optimal " +
			"generic join, safe under the AGM bound " + rhoText(p.RhoStar)
	default:
		p.Rationale = fmt.Sprintf("cyclic with color number C(chase(Q)) = %s ≥ 2: intermediate "+
			"relations of the join-project plan can reach rmax^C, so run the worst-case optimal "+
			"generic join bounded by %s", ci.Number.RatString(), rhoText(p.RhoStar))
	}
	return p, nil
}

func rhoText(rho *big.Rat) string {
	if rho == nil {
		return "rmax^ρ*(Q)"
	}
	return fmt.Sprintf("rmax^ρ* = rmax^%s", rho.RatString())
}

// ChooseForDB is Choose followed by cardinality-aware atom ordering against
// db (a no-op for strategies that order their own work): the plan an
// Engine evaluates, which caches the Choose half once per query text and
// derives the order per call.
func ChooseForDB(q *cq.Query, db *database.Database) (*Plan, error) {
	p, err := Choose(q)
	if err != nil {
		return nil, err
	}
	if p.Strategy == StrategyProjectEarly {
		p.AtomOrder = OrderAtoms(q, db)
	}
	return p, nil
}

// ExecuteOpts runs the plan on db; the query must be the one the plan was
// chosen for, and nil opts runs single-shard. When opts enables sharding,
// the Yannakakis and project-early strategies route their joins,
// semijoins and projections through internal/shard: the planner's atom
// order determines which relations meet at each join, and the partition key
// is chosen per join among the columns that order makes shared (falling
// back to single-shard execution when a step's inputs are below the row
// threshold or share no column). The generic join extends one variable at a
// time and has no binary join to partition, so it uses opts only for
// tracing. When opts carries a tracer, ExecuteOpts stamps the strategy and
// the paper's worst-case bound on the root span before dispatching.
func ExecuteOpts(ctx context.Context, p *Plan, q *cq.Query, db *database.Database, opts *shard.Options) (*relation.Relation, eval.Stats, error) {
	annotateRoot(p, q, db, opts)
	var (
		out *relation.Relation
		st  eval.Stats
		err error
	)
	switch p.Strategy {
	case StrategyYannakakis:
		out, st, err = eval.YannakakisExec(ctx, q, db, opts)
	case StrategyProjectEarly:
		out, st, err = eval.JoinProjectExec(ctx, q, db, p.AtomOrder, opts)
	case StrategyGenericJoin:
		out, st, err = eval.GenericJoinExec(ctx, q, db, opts)
	default:
		return nil, eval.Stats{}, fmt.Errorf("plan: unknown strategy %v", p.Strategy)
	}
	if err == nil && out != nil {
		if tr := opts.Tracer(); tr != nil {
			tr.Root().AddOut(out.Size())
		}
	}
	return out, st, err
}

// BoundRows returns the paper's pre-execution worst-case row bound for the
// plan's strategy over db — the number annotateRoot stamps on a traced
// root span, available before the query runs so a serving front-end can
// admit or queue work against its memory budget: Σ|Rᵢ| for Yannakakis
// (intermediates ≤ input + output), rmax^C for project-early (Thm 4.4),
// and the AGM bound rmax^ρ* for the generic join. The note is the
// human-readable form. ok is false when the inputs the bound needs (a
// relation's rmax, the plan's exponents) are unavailable.
func BoundRows(p *Plan, q *cq.Query, db *database.Database) (rows float64, note string, ok bool) {
	switch p.Strategy {
	case StrategyYannakakis:
		in := 0
		for _, a := range q.Body {
			if r := db.Relation(a.Relation); r != nil {
				in += r.Size()
			}
		}
		return float64(in), "Yannakakis: intermediates ≤ input + output rows", true
	case StrategyProjectEarly:
		if p.ColorNumber != nil {
			if rmax, err := db.RMax(q); err == nil {
				c, _ := p.ColorNumber.Float64()
				return math.Pow(float64(rmax), c),
					fmt.Sprintf("Thm 4.4 bound rmax^C = %d^%s", rmax, p.ColorNumber.RatString()), true
			}
		}
	case StrategyGenericJoin:
		if p.RhoStar != nil {
			if rmax, err := db.RMax(q); err == nil {
				rho, _ := p.RhoStar.Float64()
				return math.Pow(float64(rmax), rho),
					fmt.Sprintf("AGM bound rmax^ρ* = %d^%s", rmax, p.RhoStar.RatString()), true
			}
		}
	}
	return 0, "", false
}

// annotateRoot records the chosen strategy and the paper's worst-case
// intermediate-size bound on the evaluation's root span, so a rendered
// trace shows the theoretical ceiling next to the actual row counts. It is
// a no-op when opts carries no tracer.
func annotateRoot(p *Plan, q *cq.Query, db *database.Database, opts *shard.Options) {
	tr := opts.Tracer()
	if tr == nil {
		return
	}
	tr.SetStrategy(p.Strategy.String())
	if rows, note, ok := BoundRows(p, q, db); ok {
		root := tr.Root()
		root.SetEst(rows)
		root.SetNote(note)
	}
}
