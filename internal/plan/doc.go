// Package plan is the bound-driven query planner: it turns the paper's
// structural analysis into an executable decision about how to evaluate a
// conjunctive query. The selection rule follows the cost bounds proved for
// each strategy:
//
//   - α-acyclic queries (GYO reduction succeeds) run under Yannakakis'
//     algorithm, whose forced intermediates are subtree joins projected
//     onto their parent interface plus the head — O(input + output) when
//     the head keeps every variable;
//   - cyclic queries whose color number C(chase(Q)) is small and tight run
//     the project-early plan of Corollary 4.8, whose cost is polynomial with
//     exponent C + 1;
//   - everything else — large color numbers, or compound dependencies where
//     only the exponential entropy LP could price the query — runs the
//     worst-case optimal generic join, safe under the AGM bound rmax^ρ*(Q).
//
// Selection needs only the cheap structural stage of internal/core (the
// chase and the polynomial coloring LPs); it never pays for the entropy LP.
// Atom ordering for the project-early plan is a separate, data-aware step
// (order.go) so a structural plan can be cached per query and re-ordered
// per database.
//
// # Execution
//
// Execute runs a chosen plan; ExecuteOpts additionally threads a
// *shard.Options into the strategies that expose binary joins. Under
// sharding, the planner's atom order decides which relations meet at each
// join, and internal/shard's exchange router decides per join whether to
// reuse the partitioning the previous step left, repartition one side,
// broadcast a small side, or fall back to single-shard execution — see the
// internal/shard package documentation for the exact ladder. The plan
// itself is unchanged by sharding: strategy selection is structural, and
// sharded execution is output-identical by construction, so a cached plan
// serves both sharded and unsharded engines.
package plan
