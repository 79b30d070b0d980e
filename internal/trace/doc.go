// Package trace is the per-evaluation observability layer of the engine:
// one Tracer per traced evaluation collects a tree of Spans — the root
// "evaluate" span, one stage span per executor phase (plan, bindings,
// semijoin passes, join steps, head projection), and operator spans for
// the work inside a stage (scans, semijoin and join probes, projections,
// exchanges, sinks) — each carrying rows in/out, batches pulled, the
// planner's estimated intermediate size next to the actual one, shard
// fan-out, spill/reload events, and wall time.
//
// The contract with the execution stack:
//
//   - A nil *Tracer (and every span it hands out, which is a nil *Span)
//     is inert: all methods are no-ops, so call sites instrument
//     unconditionally and untraced evaluation pays only nil checks.
//   - Stages are sequential within one evaluation: Tracer.Stage sets the
//     current stage, and Tracer.Op attaches an operator span to whatever
//     stage is current. Operators inside one stage may run concurrently
//     (pool workers add rows through atomic counters); stages themselves
//     must not.
//   - Spans of synchronous operators are closed by their creator (End).
//     Spans of lazy pipeline stages are armed with their part count
//     (Arm) and close when every part reports end-of-stream (Done);
//     Finish force-closes whatever an error left open, so a Trace never
//     contains a span without a duration.
//   - Durations of pipeline spans overlap by construction — a pull-based
//     stage runs concurrently with every stage downstream of it — so the
//     tree's times do not sum to the root's wall clock.
//
// Finish freezes the tree into a Trace, which renders as an EXPLAIN
// ANALYZE text (Render) and carries the per-query deltas of the engine's
// five counter families (cache, shard, stream, spill, epoch), captured by
// the engine's snapshot/diff mechanism so concurrent queries do not
// contaminate each other. Sink receives finished traces; SlowQueryLog is
// the structured slow-query log sink (cqserve -slow registers one on
// stderr through the engine's WithTraceSink option).
package trace
