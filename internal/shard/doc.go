// Package shard is the horizontal-scaling layer over the interned columnar
// store: relations are hash-partitioned by a key column into P shards —
// each a normal *relation.Relation, so the memoized statistics and hash
// indexes of the relation package keep working unchanged per shard — and the package's operators run joins, semijoins and
// duplicate-eliminating projections as one column-batch pipeline
// (internal/batch) per shard, drained over internal/pool with context
// cancellation.
//
// The paper's bounds govern how large outputs and intermediates can get
// (AGM/ρ*, Corollary 4.8, Yannakakis for acyclic queries); partitioning is
// the orthogonal lever that decides how fast each bounded-size pass runs.
// Because a value's shard depends only on (value, P) — see ShardOf — two
// relations partitioned on a shared join column with the same P are
// co-partitioned: shard k of one side joins only shard k of the other,
// making every binary join and semijoin embarrassingly parallel across
// shards and, even on a single core, splitting one large hash map into P
// cache-sized ones.
//
// # When does a join run sharded?
//
// The running intermediate of an evaluation is a Piped: per-shard
// pipelines plus the key they are partitioned on. Every operator
// (JoinPipedStream, SemijoinPipedStream, ProjectPiped) extends the
// pipelines by one stage and decides per call where that stage's probes
// happen, in this order:
//
//  1. Aligned reuse. If the pipeline is partitioned on one of the join
//     columns at the options' P, the other side is partitioned to match
//     (through its memo) and each part probes only its co-shard. This is
//     the zero-cost case end-to-end sharding exists for: a co-partitioned
//     join's part-k output carries its key value, so it IS part k of the
//     result, and the rows that flow are counted as reused.
//  2. One part. If opts is nil, P < 2, or a flat (single-part) pipeline
//     meets a probe side below Options.MinRows, the other side is probed
//     whole in the single part and the fallback is counted in
//     Options.Metrics. Callers thread one code path regardless of
//     configuration, and outputs are identical either way.
//  3. Broadcast. If the pipeline is partitioned on a non-join column
//     (misaligned) and the other side is small (streamBroadcastRows, or
//     below MinRows), the pipeline keeps its partitioning and every part
//     probes the other side whole. Semijoins broadcast whenever the
//     pipeline is misaligned — a filter's output is a subset of its
//     input, so any existing partitioning survives and an exchange is
//     never needed.
//  4. Exchange. Otherwise the pipeline's batches are scattered mid-stream
//     (batch.Exchange) onto the shared column where the other side has the
//     most distinct values (balanced hash partitions), and the other side
//     is partitioned on it through the per-(key, P) memo.
//
// Whichever rung applies, each part is one probe chain over its pipeline
// and its shard (or the whole other side). A dominant key value (a Zipf
// hub) hashes every matching row into one part, whose probe then runs on
// one worker; nothing splits a part. Joins with no shared column probe the
// whole other side from every part (a product).
//
// Partitioning is statistics-light by design (janus-datalog's "greedy
// beats optimal" production lesson): the partition key is the shared join
// column with the most distinct values, P defaults to GOMAXPROCS, and
// there is no cost model beyond the ladder above.
//
// # Projections
//
// A projection's dedup set is chosen from the data. Every Piped carries a
// value range per column: PipedOf reads them from relation.ValueRange, a
// join keeps its left columns' ranges, narrows each join column to the
// intersection of both sides and takes the other side's ranges for the
// columns it adds, and a semijoin narrows its join columns. When the kept
// columns' ranges multiply to at most the batch package's dense limit
// (2^24 bits), rows dedup in batch.DenseSet bitmaps and nothing is
// exchanged, whether or not the key column is kept. A projection that
// keeps the key dedups part by part, each part in a bitmap of its own;
// one that drops it marks a private bitmap per part, merges them once
// every part is drained and decodes a slice of the merged bitmap per
// output part (batch.ProjectDenseParts), leaving an unkeyed multi-part
// Piped (key -1): parts still run side by side, but no operator treats
// them as aligned. Wider domains deduplicate in per-part hash sets: the
// projection keeps the pipeline's key when the key column is kept and
// exchanges onto its first kept column otherwise, so all duplicates of a
// projected tuple meet in one part's set. A projection that keeps every
// column deduplicates nothing and keeps the key.
//
// MaterializePiped is the one sink, for the answer and for every
// intermediate alike: the parts drain in parallel into pooled chunks, and
// their rows are copied once into one relation, part after part
// (batch.MaterializeParts). The Stream it returns keeps each part's row
// range and the Piped's key (-1 when unkeyed), and PipedOf opens those
// ranges again as parts, so what had to be built whole (a Yannakakis
// reduction) re-enters the next pipeline still split.
//
// # Partition-memoization contract
//
// Partition(r, key, p) stores the shard list in r's size-keyed memo table
// under "shard:key:p". The contract:
//
//   - One build per (key, P) per stored row set. Renamed and cloned views
//     delegate memo lookups to the relation whose storage they share, so
//     all views of one base relation share one partition; Partition
//     re-serves a memoized partition under the caller's attribute names
//     through O(arity) copy-on-write renames.
//   - Inserts invalidate implicitly: memo entries record the relation size
//     they were built at, so the next Partition after growth rebuilds.
//   - Shards are read-only. They may be served concurrently to many
//     evaluations; nothing may insert into a shard.
//
// Large builds run block-parallel (bucket counts per block, a prefix over
// the block×shard count matrix, then a race-free scatter into disjoint
// ranges), preserving the sequential build's row order exactly.
//
// # Empty shards
//
// Sparse partitionings (P far above a key's distinct values) leave many
// shards empty, and empty shards pay nothing: Partition points empty
// buckets at one canonical empty relation instead of allocating columns,
// and a scan of an empty shard ends its part's pipeline at the first pull.
//
// # Spill
//
// Options.Spill threads a memory governor (internal/spill) through every
// path that builds shards: memoized base partitions, the sealed chunks of
// a mid-stream exchange, and transient sinks all register their column
// bytes, and the governor parks the coldest unpinned ones in file-backed
// segments when its budget is exceeded.
// Pipeline stages pin what they read one batch at a time, so a parked
// shard reloads when its scan reaches it and an exchange never needs the
// whole repartitioned intermediate resident. Reads of parked shards
// reload transparently; outputs are identical with or without a budget.
package shard
