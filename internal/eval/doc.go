// Package eval evaluates conjunctive queries over databases. Four
// strategies are provided:
//
//   - Naive: left-deep natural joins over the body atoms followed by a final
//     head projection — the textbook plan whose intermediates can explode.
//   - JoinProject: the project-early plan in the spirit of Corollary 4.8 and
//     Theorem 15 of Atserias–Grohe–Marx: after each join, variables that are
//     neither head variables nor needed by later atoms are projected away.
//     JoinProjectExec additionally accepts a planner-chosen atom order.
//   - GenericJoin: a variable-at-a-time worst-case optimal join (the modern
//     algorithm family the AGM bound gave rise to).
//   - Yannakakis (yannakakis.go): semijoin reduction over the GYO join tree
//     of an α-acyclic query, then a join pass that projects each subtree
//     result onto the variables its parent shares plus the head —
//     O(input + output) when the head keeps every variable.
//
// All strategies return exactly Q(D) and are cross-checked in tests. Each
// has a context-aware form (NaiveCtx, JoinProjectExec, GenericJoinExec,
// YannakakisExec) that honors cancellation and stops early when an
// intermediate result is empty; the plain forms are conveniences with a
// background context, nil options and the body's own atom order.
//
// # Pipelined execution in parts
//
// JoinProjectExec and YannakakisExec are the only implementations of their
// strategies (the plain forms call them with nil options). Each builds
// pull-based column-batch pipelines (internal/batch) over internal/shard's
// parts: the running intermediate is a shard.Piped, whose scan splits a
// relation of at least Options.MinRows rows into P row ranges, and every
// binary join and semijoin extends each part with a probe of the other
// side's one shared index. A multi-join plan — a triangle, a cycle, a
// Yannakakis semijoin chain — keeps every step in parts from its scan to
// its sink, and no intermediate is built as a relation except what must be
// indexed whole (Yannakakis' reductions and projected subtree results).
// Those and the answer come from one sink, shard.MaterializePiped: one
// flat relation per pipeline, governed and scoped when it is an
// intermediate, which the next pipeline scans in row ranges again. nil
// options mean one part and default batches. Outputs are identical in
// every configuration, which the 220-pair property matrix (the
// TestProperty* sweep slices) proves against Naive across part counts,
// batch sizes and a forced-spill budget, Zipf-skewed data included.
//
// Stats.MaxIntermediate is the largest relation an evaluation actually
// built: for Naive and GenericJoin the largest intermediate or the
// output, for JoinProjectExec the output (its intermediates stream), for
// YannakakisExec the largest forced subtree result — a subtree's join
// projected onto its parent interface plus the head — or the output.
// Per-stage row counts come from EvaluateTraced.
//
// GenericJoin extends one variable at a time and has no binary join to
// split into parts, so it takes the options only for their tracer (see the
// ROADMAP's sharded generic join item). Its trace holds an "index R" scan
// span per atom and an "extend X" span per variable, counting the partial
// assignments that survived X. Below the deepest head variable the search
// stops at the first witness, so the last span counts one full assignment
// per surviving assignment of the variables up to it — exactly |Q(D)|
// when the head variables lead the order — not every full assignment.
//
// When Options.Spill carries a memory governor, pipeline stages pin the
// storage they read one batch at a time and a projection's exchange seals
// its output into governed chunks as they fill, so the governor never
// parks a relation mid-read while anything cold may spill between reads and reloads
// transparently on its next use. The property matrix proves outputs
// identical to Naive under a budget that forces eviction mid-plan.
//
// Binding relations (bindingRelation) are the bridge from atoms to
// relations: for atoms without repeated variables they are O(arity)
// copy-on-write renames of the stored relation, so memoized statistics,
// value ranges and indexes (joins and generic join read the same ones) of
// the base relation serve every query that touches it.
package eval
