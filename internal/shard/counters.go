package shard

// The counters the piped operators share (Counters).

import (
	"cqbound/internal/metrics/counter"
)

// Counters is the family of the piped operators' counters (registry names
// shard_*). Options.Metrics is a Set of it, which one Engine shares across
// concurrent evaluations. reused_rows and skew_splits always read zero:
// no operator partitions its input any more, and no part is split; both
// stay registered because bench/ reads every shard_* name.
var (
	Counters   = counter.NewFamily("shard")
	shardedOps = Counters.Counter("sharded_ops",
		"joins, semijoins and projections that ran in more than one part")
	fallbackOps = Counters.Counter("fallback_ops",
		"joins, semijoins and projections that ran in one part: a scan below the row threshold, or one shard")
	reusedRows = Counters.Counter("reused_rows",
		"rows that reached an operator already partitioned on its key (no operator partitions; always zero)")
	exchangedRows = Counters.Counter("exchanged_rows",
		"rows a hash projection that dropped its parts' key scattered onto its first kept column")
	broadcastOps = Counters.Counter("broadcast_ops",
		"joins and semijoins whose parts each probed the right operand's shared index whole")
	skewSplits = Counters.Counter("skew_splits",
		"hot shards split into row blocks (no operator splits a part; always zero)")
	denseProjections = Counters.Counter("dense_projections",
		"projections that deduplicated in a dense bitmap rather than hash tables")
)
