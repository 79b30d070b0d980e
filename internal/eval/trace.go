package eval

// Tracing glue for the executors: span openers that read the tracer out
// of the evaluation's shard.Options, and the spill-delta bookkeeping that
// attributes governor activity to individual plan stages. Everything is
// inert (nil spans, zero-cost marks) when tracing is off.

import (
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

// stageSpan opens a stage span on the evaluation's tracer (nil when
// tracing is off). Stages are sequential within one evaluation.
func stageSpan(opts *shard.Options, kind trace.Kind, name string) *trace.Span {
	return opts.Tracer().Stage(kind, name)
}

// opSpan opens an operator span under the current stage (nil when
// tracing is off).
func opSpan(opts *shard.Options, kind trace.Kind, name string) *trace.Span {
	return opts.Tracer().Op(kind, name)
}

// scanSpan records a base-binding scan as an immediately-closed span.
func scanSpan(opts *shard.Options, name string, rows int) {
	sp := opSpan(opts, trace.KindScan, "scan "+name)
	sp.AddOut(rows)
	sp.End()
}

// setSinkOut annotates a sink span with the flat relation it built and
// the number of parts that drained into it.
func setSinkOut(sp *trace.Span, r *relation.Relation, parts int) {
	if sp == nil {
		return
	}
	sp.AddOut(r.Size())
	if parts > 1 {
		sp.SetShards(parts)
	}
}

// semijoinSpan opens a span for l ⋉ r (nil when tracing is off),
// pre-annotated with input size and the System-R selectivity estimate.
func semijoinSpan(opts *shard.Options, tr *trace.Tracer, l, r *relation.Relation, lName, rName string) *trace.Span {
	if tr == nil {
		return nil
	}
	sp := tr.Op(trace.KindSemijoin, lName+" ⋉ "+rName)
	sp.AddIn(l.Size())
	sp.SetEst(estimateSemijoin(l, r))
	return sp
}

// spillMark snapshots the governor's eviction/reload counters so a span
// can be annotated with the delta across a stage. The counters are
// engine-wide: with one traced evaluation running the delta is exact,
// with several it attributes concurrent activity to whichever stage was
// open — the per-query Trace deltas (scope-attributed) stay exact either
// way.
type spillMark struct {
	g      *spill.Governor
	ev, rl int64
}

// markSpill takes the snapshot; inert when tracing or spilling is off.
func markSpill(opts *shard.Options, tracing bool) spillMark {
	if !tracing || opts == nil {
		return spillMark{}
	}
	var m spillMark
	m.g = opts.Spill
	m.ev, m.rl = m.g.EventCounts()
	return m
}

// annotate records the delta since the mark on sp.
func (m spillMark) annotate(sp *trace.Span) {
	if sp == nil || m.g == nil {
		return
	}
	ev, rl := m.g.EventCounts()
	sp.AddSpill(ev-m.ev, rl-m.rl)
}
