package shard

// Options, and the hash partition the benchmark's shard probe times.
// Package documentation lives in doc.go; the operators are in piped.go.

import (
	"context"
	"fmt"
	"runtime"

	"cqbound/internal/metrics/counter"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

// Options controls when and how the piped operators run in parts. A nil
// *Options disables parts entirely: every pipeline has one part and
// batches of batch.DefaultSize rows. A non-nil zero value means "split
// everything": threshold 0 with GOMAXPROCS parts and default batches.
type Options struct {
	// MinRows is the row threshold: a scan splits into row ranges only
	// when its relation has at least MinRows rows. Small inputs aren't
	// worth the parts.
	MinRows int
	// Shards is the part count P; <= 0 means GOMAXPROCS.
	Shards int
	// Metrics, when non-nil, counts what the operators run under these
	// options did (parts, fallbacks, projection exchanges, dense
	// projections): a Set of Counters.
	Metrics *counter.Set
	// Spill, when non-nil, registers every transient relation built under
	// these options — pipeline sinks and the sealed chunks of a
	// projection's exchange — with the memory governor, which parks cold
	// ones in file-backed segments when its byte budget is exceeded.
	// Pipeline stages pin the storage they read one batch at a time. nil
	// keeps everything in memory.
	Spill *spill.Governor
	// Scope, when non-nil alongside Spill, collects the buffers of those
	// transients so the caller can discard them in bulk once the
	// evaluation's result has been materialized (Engine.Evaluate closes
	// one scope per call). nil retains intermediates in the governor until
	// its Close.
	Scope *spill.Scope
	// BatchSize is the row count of the column batches (internal/batch)
	// the pipelines move between stages; <= 0 means batch.DefaultSize.
	BatchSize int
	// Batch, when non-nil, counts what the pipelines did (batches, rows,
	// buffered fallbacks, bytes never materialized): a Set of
	// batch.Counters, shared across concurrent evaluations like Metrics.
	Batch *counter.Set
	// Trace, when non-nil, is the per-evaluation tracer: executors open
	// stage and operator spans on it, and a projection's exchange attaches
	// its span to whatever stage is current.
	// Unlike Metrics and Batch it is never shared: the Engine threads a
	// fresh Tracer through each traced evaluation's private Options copy.
	Trace *trace.Tracer
}

// Tracer returns the per-evaluation tracer (nil-safe; nil disables
// tracing). Executors in eval/plan open their spans through it.
func (o *Options) Tracer() *trace.Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// batchSize returns the configured batch row count (nil-safe; 0 lets the
// batch package use its default).
func (o *Options) batchSize() int {
	if o == nil {
		return 0
	}
	return o.BatchSize
}

// batchMetrics returns the pipeline counters (nil-safe; nil disables
// counting).
func (o *Options) batchMetrics() *counter.Set {
	if o == nil {
		return nil
	}
	return o.Batch
}

// Count returns the partition count P the options select: 1 for nil
// options, GOMAXPROCS when Shards is unset.
func (o *Options) Count() int {
	if o == nil {
		return 1
	}
	if o.Shards <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Shards
}

// metrics returns the options' counters (nil-safe; nil disables counting).
func (o *Options) metrics() *counter.Set {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// spill returns the options' memory governor (nil-safe; nil keeps every
// shard resident).
func (o *Options) spill() *spill.Governor {
	if o == nil {
		return nil
	}
	return o.Spill
}

// governTransient registers a freshly built, unpublished intermediate
// relation with the governor and tracks its buffer in the evaluation's
// scope for end-of-evaluation discard. No-op without a governor.
func (o *Options) governTransient(r *relation.Relation) {
	g := o.spill()
	if g == nil {
		return
	}
	r.Govern(g)
	if o.Scope != nil {
		if b := r.Buffer(); b != nil {
			o.Scope.Track(b)
		}
	}
}

// ShardOf returns the shard in [0, p) holding value v. The assignment
// depends only on (v, p). Interned IDs are small sequential integers; the
// multiplicative mix keeps consecutive IDs from landing in consecutive
// shards.
func ShardOf(v relation.Value, p int) int {
	h := uint64(uint32(v)) * 0x9E3779B1 // Fibonacci hashing; spread bits
	return int((h >> 16) % uint64(p))
}

// parallelPartitionMinRows is the size at which the partition build fans
// its bucket and scatter passes out over the worker pool; below it the
// sequential two-pass build wins on setup cost.
const parallelPartitionMinRows = 1 << 14

// Partition hash-partitions r by column key into p shards: shard k holds
// exactly the rows whose key value hashes to k (ShardOf), as a plain
// relation carrying r's schema, and empty shards share one empty
// relation. p < 2 returns r itself as the one shard, with no copying.
// Large relations bucket, scatter and gather block-parallel over
// internal/pool. No operator partitions: this is the kernel bench/'s
// shard.partition_ms times.
func Partition(r *relation.Relation, key, p int) []*relation.Relation {
	if key < 0 || key >= r.Arity() {
		panic(fmt.Sprintf("shard: partition column %d out of range for %s", key, r.Name))
	}
	if p < 2 {
		return []*relation.Relation{r}
	}
	r.Pin()
	defer r.Unpin()
	buckets := partitionRows(r.Column(key), p)
	empty := relation.New(r.Name, r.Attrs...)
	out := make([]*relation.Relation, p)
	_ = pool.Run(context.Background(), 0, p, func(k int) error {
		out[k] = empty
		if len(buckets[k]) > 0 {
			out[k] = r.Gather(r.Name, buckets[k])
		}
		return nil
	})
	return out
}

// partitionRows buckets row indices of a key column into p shards. Small
// columns take the sequential two-pass build (count, then append); large
// ones run three block-parallel passes — per-block counts, a sequential
// prefix over the tiny blocks×p count matrix, then a scatter where each
// block writes its rows into disjoint ranges of the shared bucket arrays.
// Row order within a shard matches the sequential build exactly, so the
// parallel path is a pure speedup, not a behavior change.
func partitionRows(col []relation.Value, p int) [][]int32 {
	n := len(col)
	workers := pool.DefaultWorkers()
	if n < parallelPartitionMinRows || workers < 2 {
		counts := make([]int, p)
		for _, v := range col {
			counts[ShardOf(v, p)]++
		}
		buckets := make([][]int32, p)
		for k := range buckets {
			buckets[k] = make([]int32, 0, counts[k])
		}
		for i, v := range col {
			k := ShardOf(v, p)
			buckets[k] = append(buckets[k], int32(i))
		}
		return buckets
	}
	blocks := workers
	bs := (n + blocks - 1) / blocks
	counts := make([][]int32, blocks) // counts[b][k]: block b's rows for shard k
	_ = pool.Run(context.Background(), 0, blocks, func(b int) error {
		cnt := make([]int32, p)
		lo, hi := b*bs, min((b+1)*bs, n)
		for _, v := range col[lo:hi] {
			cnt[ShardOf(v, p)]++
		}
		counts[b] = cnt
		return nil
	})
	// offs[b][k] is where block b starts writing inside bucket k; blocks
	// write disjoint ranges, so the scatter pass is race-free.
	offs := make([][]int32, blocks)
	for b := range offs {
		offs[b] = make([]int32, p)
	}
	totals := make([]int32, p)
	for k := 0; k < p; k++ {
		var run int32
		for b := 0; b < blocks; b++ {
			offs[b][k] = run
			run += counts[b][k]
		}
		totals[k] = run
	}
	buckets := make([][]int32, p)
	for k := range buckets {
		buckets[k] = make([]int32, totals[k])
	}
	_ = pool.Run(context.Background(), 0, blocks, func(b int) error {
		pos := append([]int32(nil), offs[b]...)
		lo, hi := b*bs, min((b+1)*bs, n)
		for i := lo; i < hi; i++ {
			k := ShardOf(col[i], p)
			buckets[k][pos[k]] = int32(i)
			pos[k]++
		}
		return nil
	})
	return buckets
}
