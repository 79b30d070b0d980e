package shard

// What the piped operators share: the routing counters (Counters), the
// Stream carrier that couples a relation with the hash partitioning it
// already has — so a pipeline opened over it starts partitioned.

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

// Stream is a relation together with its current hash partitioning, when
// it has one: what the executors hold between pipelines. MaterializePiped
// returns the per-part relations of a multi-part pipeline as a partitioned
// Stream, and PipedOf opens one scan per shard over it, so a reduced
// binding that was exchanged once stays partitioned for the next pass; the
// flat relation is built only when something needs it whole (a probe side
// is indexed). A zero Stream is empty; build one with StreamOf or
// ShardedStream.
type Stream struct {
	rel *relation.Relation
	sh  *Sharded
}

// StreamOf wraps a flat relation with no current partitioning.
func StreamOf(r *relation.Relation) Stream { return Stream{rel: r} }

// ShardedStream wraps a partitioned view.
func ShardedStream(sh *Sharded) Stream { return Stream{sh: sh} }

// Rel returns the stream's flat relation, materializing it from the shards
// on first call when the stream only holds a partitioned view.
func (st Stream) Rel() *relation.Relation {
	if st.rel != nil {
		return st.rel
	}
	if st.sh != nil {
		return st.sh.Rel()
	}
	return nil
}

// Sharded returns the stream's current partitioned view, or nil.
func (st Stream) Sharded() *Sharded { return st.sh }

// Size returns the row count without materializing a flat relation.
func (st Stream) Size() int {
	if st.rel != nil {
		return st.rel.Size()
	}
	if st.sh != nil {
		return st.sh.Size()
	}
	return 0
}

// Attrs returns the stream's attribute names without materializing.
func (st Stream) Attrs() []string {
	if st.rel != nil {
		return st.rel.Attrs
	}
	if st.sh != nil {
		return st.sh.Attrs()
	}
	return nil
}

// DistinctEstimate estimates the number of distinct values in column col,
// feeding the executors' per-join size estimator (the System-R chain the
// trace layer renders next to actual row counts). Memoized counts are
// served exactly; large unmemoized intermediates are sampled
// (relation.DistinctEstimate) instead of scanned, keeping traced
// evaluation within a few percent of untraced. A partitioned view sums its
// shards' counts: exact on the partition key, an overestimate elsewhere.
func (st Stream) DistinctEstimate(col int) int {
	if st.rel != nil {
		return st.rel.DistinctEstimate(col)
	}
	if st.sh == nil {
		return 0
	}
	n := 0
	for _, sh := range st.sh.sh {
		n += sh.DistinctEstimate(col)
	}
	return n
}

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
