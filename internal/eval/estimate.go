package eval

// Per-operator size estimation for the trace layer: the classical
// System-R independence estimates, computed from the per-column distinct
// counts the relations maintain — memoized exactly for base relations,
// sample-estimated (relation.DistinctEstimate) for large transient
// intermediates so estimation never rescans what evaluation just built.
// Traced evaluations record these next to the actual row counts each
// operator produced — the paper predicts worst-case intermediate sizes
// from query structure, and these estimates are the per-step refinement a
// cost-based planner would use, so the trace shows how either relates to
// reality. Nothing here feeds back into planning (yet); estimation runs
// only under tracing.

import (
	"math"
	"slices"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/relation"
)

// EstimateOutput is the whole-query System-R independence estimate of
// |Q(D)|: the body atoms joined in order under containment of value sets
// (each shared variable divides by the larger distinct count and keeps the
// smaller), then a duplicate-eliminating projection onto the head
// variables. It is the pre-execution cost-model counterpart of the paper's
// worst-case bounds: BoundRows can never undershoot, this can, and the
// calibration telemetry records how each tracks actual cardinalities.
// Relations absent from db contribute nothing (their estimate is left to
// planning-time errors elsewhere).
func EstimateOutput(q *cq.Query, db *database.Database) float64 {
	est := 1.0
	v := make(map[cq.Variable]float64)
	for _, a := range q.Body {
		r := db.Relation(a.Relation)
		if r == nil {
			continue
		}
		est *= float64(r.Size())
		for i, x := range a.Vars {
			d := math.Max(1, float64(r.DistinctEstimate(i)))
			if dl, ok := v[x]; ok {
				if m := math.Max(dl, d); m >= 1 {
					est /= m
				}
				v[x] = math.Min(dl, d)
			} else {
				v[x] = d
			}
		}
		for x, d := range v {
			if d > est {
				v[x] = math.Max(1, est)
			}
		}
	}
	domain := 1.0
	for _, x := range q.Head.Vars {
		d, ok := v[x]
		if !ok {
			d = 1
		}
		if domain < est {
			domain *= d
		}
	}
	return math.Min(est, domain)
}

// estimateJoin estimates |l ⋈ r| from the sides' sizes and per-column
// distinct counts: |l|·|r| / Π over shared attributes of max(V(l,a),
// V(r,a)) — the containment-of-value-sets assumption. With no shared
// attribute this is the cross-product size.
func estimateJoin(l, r *relation.Relation) float64 {
	lAttrs, rAttrs := l.Attrs, r.Attrs
	est := float64(l.Size()) * float64(r.Size())
	for i, a := range lAttrs {
		j := slices.Index(rAttrs, a)
		if j < 0 {
			continue
		}
		if m := math.Max(float64(l.DistinctEstimate(i)), float64(r.DistinctEstimate(j))); m >= 1 {
			est /= m
		}
	}
	return est
}

// estimateSemijoin estimates |l ⋉ r|: l's size scaled per shared
// attribute by the fraction of l's values assumed to appear in r,
// min(V(l,a), V(r,a)) / V(l,a).
func estimateSemijoin(l, r *relation.Relation) float64 {
	lAttrs, rAttrs := l.Attrs, r.Attrs
	est := float64(l.Size())
	for i, a := range lAttrs {
		j := slices.Index(rAttrs, a)
		if j < 0 {
			continue
		}
		dl, dr := float64(l.DistinctEstimate(i)), float64(r.DistinctEstimate(j))
		if dl >= 1 && dr < dl {
			est *= dr / dl
		}
	}
	return est
}

// estimator carries the System-R estimate through a join-project plan,
// where the running intermediate is a pipeline whose actual cardinality is
// unknown until the sink drains: rows is the running size estimate and v
// the per-attribute distinct estimates, both advanced join by join the
// way a cost-based optimizer would before execution.
type estimator struct {
	rows float64
	v    map[string]float64
}

// estimatorOf seeds the chain from a materialized first operand.
func estimatorOf(r *relation.Relation) *estimator {
	e := &estimator{rows: float64(r.Size()), v: make(map[string]float64, len(r.Attrs))}
	for i, a := range r.Attrs {
		e.v[a] = math.Max(1, float64(r.DistinctEstimate(i)))
	}
	return e
}

// joinWith returns the estimated output size of joining the running
// intermediate with r and advances the estimator to that state (shared
// attributes keep the smaller distinct count, new attributes join the
// map, and every count is capped by the new row estimate).
func (e *estimator) joinWith(r *relation.Relation) float64 {
	est := e.rows * float64(r.Size())
	for i, a := range r.Attrs {
		dr := math.Max(1, float64(r.DistinctEstimate(i)))
		if dl, ok := e.v[a]; ok {
			if m := math.Max(dl, dr); m >= 1 {
				est /= m
			}
			e.v[a] = math.Min(dl, dr)
		} else {
			e.v[a] = dr
		}
	}
	e.rows = est
	for a, d := range e.v {
		if d > est {
			e.v[a] = math.Max(1, est)
		}
	}
	return est
}

// projectTo returns the estimate after a duplicate-eliminating projection
// onto keep and drops the discarded attributes from the state (nil-safe:
// the executors advance a nil estimator when tracing is off).
func (e *estimator) projectTo(keep []string) float64 {
	if e == nil {
		return 0
	}
	domain := 1.0
	kept := make(map[string]float64, len(keep))
	for _, a := range keep {
		d, ok := e.v[a]
		if !ok {
			d = 1
		}
		kept[a] = d
		if domain < e.rows {
			domain *= d
		}
	}
	e.v = kept
	e.rows = math.Min(e.rows, domain)
	return e.rows
}
