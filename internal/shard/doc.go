// Package shard runs the executors' column-batch pipelines (internal/batch)
// in parts: a pipeline that scans a large relation is split into P
// contiguous row ranges, each range flows through the same join, semijoin
// and projection stages as one pipeline, and the parts drain side by side
// over internal/pool with context cancellation.
//
// The paper's bounds govern how large outputs and intermediates can get
// (AGM/ρ*, Corollary 4.8, Yannakakis for acyclic queries); parts are the
// orthogonal lever that decides how fast each bounded-size pass runs. The
// design is morsel-driven in the sense of Leis et al. (SIGMOD 2014):
// workers take row ranges of the probe side, and every worker probes one
// read-only index of the build side, shared by all of them. No relation
// is partitioned and no row crosses between parts on its way to a join.
//
// # When does a pipeline run in parts?
//
// The running intermediate of an evaluation is a Piped: per-part
// pipelines, the column they are partitioned on (-1 when none), and a value
// range per column. PipedOf opens a relation in one of two ways:
//
//  1. One part. If opts is nil, P < 2, or the relation has fewer than
//     Options.MinRows rows, the scan is one pipeline, and so is every
//     stage built on it.
//  2. Row ranges. Otherwise part k scans rows [k·n/P, (k+1)·n/P).
//
// JoinPipedStream and SemijoinPipedStream extend every part with a probe
// of the right operand's memoized index (relation.Index), built once on
// the first pull and then shared read-only; a join with no shared column
// joins every part with the whole right operand (a product). Neither
// changes the part count or the partitioning column, so a plan that
// starts in parts stays in parts to its sink. Each operator counts itself
// in Options.Metrics as run in parts or in one.
//
// Row ranges balance rows, not keys: a dominant key value (a Zipf hub)
// spreads over every part, whose probes of its posting list run side by
// side. The part count is the options' P (GOMAXPROCS by default); there
// is no cost model. A variant in which workers claim small morsels from a
// shared atomic cursor measured slower than static ranges, which are also
// deterministic.
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
// exchanged. A projection over one part, or one that keeps the
// partitioning column, dedups part by part, each part in a bitmap of its
// own; otherwise every part marks a private bitmap, the bitmaps are merged
// once every part is drained and each output part decodes a slice of the
// merged bitmap (batch.ProjectDenseParts), leaving unkeyed parts. Wider
// domains deduplicate in per-part hash sets: a projection that keeps the
// partitioning column projects part by part, and one over several unkeyed
// parts exchanges them onto its first kept column (batch.Exchange), so all
// duplicates of a projected tuple meet in one part's set. That exchange is
// the one place rows move between parts, and its output parts are keyed
// on that column. A projection that keeps every column deduplicates
// nothing.
//
// MaterializePiped is the one sink, for the answer and for every
// intermediate alike: the parts drain in parallel into pooled chunks, and
// their rows are copied once into one relation, part after part
// (batch.MaterializeParts). A relation built whole (a Yannakakis
// reduction) re-enters the next pipeline through PipedOf, in row ranges
// again.
//
// # Partition
//
// Partition(r, key, p) hash-partitions r by one column into p shards (each
// a plain relation; ShardOf names a value's shard) with a block-parallel
// bucket, scatter and gather. No operator calls it: it is the kernel the
// benchmark's shard probe times, and tests use it to build pipelines
// partitioned on a column, as a projection's exchange leaves them.
//
// # Spill
//
// Options.Spill threads a memory governor (internal/spill) through every
// transient relation the operators build: a projection's exchange seals
// its output into governed chunks as they fill, and transient sinks (a
// Yannakakis reduction, a forced subtree result) register their column
// bytes. The governor parks the coldest unpinned ones in file-backed
// segments when its budget is exceeded. Pipeline stages pin what they read
// one batch at a time, so a parked relation reloads when its scan reaches
// it. Reads of parked relations reload transparently; outputs are
// identical with or without a budget.
package shard
