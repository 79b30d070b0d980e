package shard

// Options, partitioned views and their construction. Package documentation
// lives in doc.go; the operators that route pipelines over these views are
// in piped.go.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"cqbound/internal/metrics/counter"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

// Options controls when and how the piped operators partition. A nil
// *Options disables sharding entirely: every pipeline has one part and
// batches of batch.DefaultSize rows. A non-nil zero value means "shard
// everything": threshold 0 with GOMAXPROCS shards, default skew handling
// and default batches.
type Options struct {
	// MinRows is the row threshold: an operator runs partition-parallel
	// only when its larger input has at least MinRows rows. Small inputs
	// aren't worth the partitioning pass.
	MinRows int
	// Shards is the partition count P; <= 0 means GOMAXPROCS.
	Shards int
	// SkewFraction is the hot-shard trigger: when one shard of an
	// operator's probe side holds more than this fraction of the side's
	// rows — one dominant key value hashes every matching row into a
	// single shard — the shard is split into row blocks that each join
	// against the (pointer-replicated, read-only) co-shard, restoring
	// per-worker balance. 0 means the default (0.25); negative disables
	// splitting.
	SkewFraction float64
	// Metrics, when non-nil, counts the routing decisions (sharded vs
	// fallback, reused vs repartitioned rows, broadcasts, skew splits) of
	// every operator run under these options: a Set of Counters.
	Metrics *counter.Set
	// Spill, when non-nil, registers every shard built under these options
	// — memoized base partitions and pipeline sinks alike — with the
	// memory governor, which parks cold shards in file-backed segments
	// when its byte budget is exceeded. Pipeline stages pin the storage
	// they read one batch at a time, and a mid-stream exchange seals its
	// output into governed chunks as they fill. nil keeps everything in
	// memory.
	Spill *spill.Governor
	// Scope, when non-nil alongside Spill, collects the buffers of
	// TRANSIENT shards — pipeline sinks, exchange chunks, partitions of
	// intermediates — so the caller can discard them in bulk once the
	// evaluation's result has been materialized (Engine.Evaluate closes
	// one scope per call). Memoized base partitions are never scoped: they
	// outlive evaluations by design. nil retains intermediates in the
	// governor until its Close.
	Scope *spill.Scope
	// BatchSize is the row count of the column batches (internal/batch)
	// the pipelines move between stages; <= 0 means batch.DefaultSize.
	BatchSize int
	// Batch, when non-nil, counts what the pipelines did (batches, rows,
	// buffered fallbacks, bytes never materialized): a Set of
	// batch.Counters, shared across concurrent evaluations like Metrics.
	Batch *counter.Set
	// Trace, when non-nil, is the per-evaluation tracer: executors open
	// stage and operator spans on it, and the exchange/skew machinery in
	// this package attaches routing spans to whatever stage is current.
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

// defaultSkewFraction is the hot-shard trigger used when Options leaves
// SkewFraction zero: a shard holding over a quarter of its side's rows
// serializes at least a quarter of the work on one worker, which is where
// splitting starts to pay.
const defaultSkewFraction = 0.25

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

// active reports whether an operator whose larger input has n rows should
// run partition-parallel under these options.
func (o *Options) active(n int) bool {
	return o.Count() > 1 && n >= o.MinRows
}

// skewFraction returns the effective hot-shard trigger: the configured
// fraction, the default when unset, or 0 (disabled) when negative.
func (o *Options) skewFraction() float64 {
	if o == nil || o.SkewFraction < 0 {
		return 0
	}
	if o.SkewFraction == 0 {
		return defaultSkewFraction
	}
	return o.SkewFraction
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
// shard with the governor and tracks its buffer in the evaluation's
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
// depends only on (v, p), so any two relations partitioned with the same P
// on columns holding the same value are co-partitioned. Interned IDs are
// small sequential integers; the multiplicative mix keeps consecutive IDs
// from landing in consecutive shards.
func ShardOf(v relation.Value, p int) int {
	h := uint64(uint32(v)) * 0x9E3779B1 // Fibonacci hashing; spread bits
	return int((h >> 16) % uint64(p))
}

// Sharded is a hash-partitioned view of a relation: shard k holds exactly
// the rows whose key-column value hashes to k. Shards are plain relations
// carrying the view's schema. Views come from two constructors: Partition
// splits an existing flat relation (memoized on the relation per (key, P)),
// and FromParts assembles a view from per-shard operator outputs that are
// partitioned by construction — the latter never materializes a flat
// relation unless Rel is called.
type Sharded struct {
	name  string
	attrs []string
	key   int
	sh    []*relation.Relation

	// eager is the flat form when the view was built by Partition: the
	// relation that was split. Immutable after construction, so it may be
	// read without synchronization.
	eager *relation.Relation
	// lazy is the flat form of an assembled (FromParts) view, built on
	// first Rel call; it is only written inside baseOnce.Do and only read
	// after the Do returns, which is the sync.Once happens-before edge.
	baseOnce sync.Once
	lazy     *relation.Relation
}

// Key returns the partition column (a position into Attrs()), or -1 for
// an unkeyed view.
func (s *Sharded) Key() int { return s.key }

// P returns the partition count.
func (s *Sharded) P() int { return len(s.sh) }

// Attrs returns the view's attribute names. The slice is the view's
// storage: treat it as read-only.
func (s *Sharded) Attrs() []string { return s.attrs }

// Shard returns shard k. The relation is the view's storage: treat it as
// read-only (it may be memoized and shared with concurrent evaluations).
func (s *Sharded) Shard(k int) *relation.Relation { return s.sh[k] }

// Size returns the total row count across shards without materializing the
// flat relation. It never touches the lazily-built flat form, so it is
// safe to call concurrently with Rel (parallel passes share Streams).
func (s *Sharded) Size() int {
	if s.eager != nil {
		return s.eager.Size()
	}
	n := 0
	for _, sh := range s.sh {
		n += sh.Size()
	}
	return n
}

// Rel returns the flat relation the view partitions. For a view built by
// Partition it is the original relation; for a view assembled from operator
// outputs it is materialized on first call by concatenating the shards
// (shards are disjoint, so no dedup pass). Safe for concurrent callers.
func (s *Sharded) Rel() *relation.Relation {
	if s.eager != nil {
		return s.eager
	}
	s.baseOnce.Do(func() {
		flat, err := relation.Concat(s.name, s.attrs, s.sh...)
		if err != nil {
			panic(fmt.Sprintf("shard: materializing %s: %v", s.name, err))
		}
		s.lazy = flat
	})
	return s.lazy
}

// FromParts assembles a Sharded view from per-shard relations that are
// already partitioned on column key: part k must hold only rows whose key
// value hashes to shard k of len(parts). This is how a multi-part
// pipeline's sink stays sharded — part k's rows carry a key value that
// hashes to k, so the relation it builds IS shard k of the result —
// without paying a concatenation the next pipeline may never need. Key -1
// assembles an unkeyed view of disjoint parts (a dense projection's sink):
// it is scanned part by part like a keyed one, but no operator treats it
// as aligned.
func FromParts(name string, attrs []string, key int, parts []*relation.Relation) *Sharded {
	if key < -1 || key >= len(attrs) {
		panic(fmt.Sprintf("shard: FromParts key %d out of range for %v", key, attrs))
	}
	return &Sharded{name: name, attrs: attrs, key: key, sh: parts}
}

// parallelPartitionMinRows is the size at which the partition build fans
// its bucket and scatter passes out over the worker pool; below it the
// sequential two-pass build wins on setup cost.
const parallelPartitionMinRows = 1 << 14

// Partition hash-partitions r by column key into p shards. p < 2 (or an
// empty relation under p == 1) returns a single-shard view of r itself with
// no copying. The partition is built once per (key, p) and memoized in r's
// size-keyed memo table — shared with renamed and cloned views, rebuilt
// after inserts — so only the first evaluation over a base relation pays
// the build. Large relations bucket, scatter and gather block-parallel over
// internal/pool; the build itself is not cancelable (it is bounded by two
// O(n) passes), callers cancel between operator steps.
func Partition(r *relation.Relation, key, p int) *Sharded {
	return partition(r, key, p, nil)
}

// partition is Partition threading the spill governor: when g is non-nil,
// every freshly built nonempty shard registers with it at construction
// (before the memoized slice is published, so no reader races the storage
// handoff). The memo is shared across governors: the first builder's
// governor manages the shards, later callers reuse them either way —
// governed storage reads identically everywhere. Empty buckets share one
// canonical empty relation instead of allocating per-shard columns, so
// sparse partitionings (P far above the key's distinct values) don't pay
// per-shard overhead.
func partition(r *relation.Relation, key, p int, g *spill.Governor) *Sharded {
	if key < 0 || key >= r.Arity() {
		panic(fmt.Sprintf("shard: partition column %d out of range for %s", key, r.Name))
	}
	if p < 2 {
		return &Sharded{name: r.Name, attrs: r.Attrs, key: key, eager: r, sh: []*relation.Relation{r}}
	}
	memoKey := fmt.Sprintf("shard:%d:%d", key, p)
	shards := r.Memo(memoKey, func() any {
		r.Pin()
		defer r.Unpin()
		buckets := partitionRows(r.Column(key), p)
		empty := relation.New(r.Name, r.Attrs...)
		out := make([]*relation.Relation, p)
		_ = pool.Run(context.Background(), 0, p, func(k int) error {
			if len(buckets[k]) == 0 {
				out[k] = empty
				return nil
			}
			out[k] = r.Gather(r.Name, buckets[k])
			out[k].Govern(g)
			return nil
		})
		return out
	}).([]*relation.Relation)
	// The memo may have been built under a differently-named view of the
	// same storage (Memo delegates to the parent relation); serve this
	// caller its own attribute names through O(arity) copy-on-write renames.
	if len(shards) > 0 && !slices.Equal(shards[0].Attrs, r.Attrs) {
		renamed := make([]*relation.Relation, len(shards))
		for k, sh := range shards {
			rs, err := sh.Rename(r.Name, r.Attrs...)
			if err != nil {
				panic(fmt.Sprintf("shard: renaming shard of %s: %v", r.Name, err))
			}
			renamed[k] = rs
		}
		shards = renamed
	}
	return &Sharded{name: r.Name, attrs: r.Attrs, key: key, eager: r, sh: shards}
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
