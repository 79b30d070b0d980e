package shard

// What the piped operators share: the routing counters (Counters), the
// Stream carrier that couples a sunk relation with the parts it was built
// from — so a pipeline opened over it starts partitioned.

import (
	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
)

// Counters is the family of exchange-routed execution's routing counters
// (registry names shard_*). Options.Metrics is a Set of it, which one
// Engine shares across concurrent evaluations.
var (
	Counters   = counter.NewFamily("shard")
	shardedOps = Counters.Counter("sharded_ops",
		"joins, semijoins and projections that ran partition-parallel, broadcasts included")
	fallbackOps = Counters.Counter("fallback_ops",
		"operators that ran single-shard: inputs below the row threshold, no shared column, or one shard")
	reusedRows = Counters.Counter("reused_rows",
		"rows that arrived at an exchange already partitioned on the needed key")
	exchangedRows = Counters.Counter("exchanged_rows",
		"rows an exchange repartitioned onto a new key, memoized partitions included")
	broadcastOps = Counters.Counter("broadcast_ops",
		"joins and semijoins that probed the small side whole in every shard instead of repartitioning")
	skewSplits = Counters.Counter("skew_splits",
		"hot shards split into row blocks (no operator splits a shard; always zero)")
	denseProjections = Counters.Counter("dense_projections",
		"projections that deduplicated in a dense bitmap rather than hash tables")
)

// Stream is a relation together with the parts of the pipeline that
// built it: what the executors hold between pipelines. MaterializePiped
// copies a multi-part pipeline's rows into one flat relation and keeps
// each part's row range and the pipeline's key (-1 when unkeyed); PipedOf
// opens one scan per part over those ranges, so a reduced binding that was
// exchanged once stays partitioned for the next pass. StreamOf wraps a
// relation no pipeline built.
type Stream struct {
	rel  *relation.Relation
	key  int
	offs []int // part k holds rows [offs[k], offs[k+1])
}

// StreamOf wraps a relation that has no parts.
func StreamOf(r *relation.Relation) Stream { return Stream{rel: r, key: -1} }

// Rel returns the stream's relation.
func (st Stream) Rel() *relation.Relation { return st.rel }

// Key returns the column the stream's parts are partitioned on, or -1 when
// they have no known partitioning.
func (st Stream) Key() int { return st.key }

// indexOfKept returns the output position of input column c under the
// projection keep, or -1 when the projection dropped it.
func indexOfKept(keep []int, c int) int {
	for i, k := range keep {
		if k == c {
			return i
		}
	}
	return -1
}
