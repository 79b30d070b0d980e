package shard

// What the piped operators share: the routing counters (Metrics), the
// Stream carrier that couples a relation with the hash partitioning it
// already has — so a pipeline opened over it starts partitioned — and the
// hot-shard arithmetic of the skew split.

import (
	"fmt"
	"sync/atomic"

	"cqbound/internal/relation"
	"cqbound/internal/trace"
)

// Metrics counts the routing decisions of exchange-routed execution. All
// counters are atomic: one Metrics may be shared across concurrent
// evaluations (the Engine does). The zero value is ready to use; methods on
// a nil *Metrics are no-ops, so operators count unconditionally.
type Metrics struct {
	// ShardedOps counts joins, semijoins and projections that ran
	// partition-parallel (including broadcasts).
	ShardedOps atomic.Int64
	// FallbackOps counts operator calls that fell back to single-shard
	// execution: inputs below Options.MinRows, no shared column to
	// partition on, or P < 2.
	FallbackOps atomic.Int64
	// ReusedRows totals the rows that arrived at an exchange already
	// partitioned on the needed key — the rows end-to-end sharding saved
	// from repartitioning.
	ReusedRows atomic.Int64
	// ExchangedRows totals the rows the exchange had to (re)partition onto
	// a new key. Flat base relations are memoized per (key, P), so
	// repeated evaluations may serve these rows from the memo; the counter
	// records the logical flow.
	ExchangedRows atomic.Int64
	// BroadcastOps counts joins and semijoins that kept the big side's
	// existing (misaligned) partitioning and probed the small side whole
	// in every shard instead of repartitioning.
	BroadcastOps atomic.Int64
	// SkewSplits counts hot shards split into row blocks by the skew
	// handler.
	SkewSplits atomic.Int64
	// DenseProjections counts projections that deduplicated in a dense
	// bitmap (batch.DenseSet) rather than hash tables.
	DenseProjections atomic.Int64
}

// Stats is a point-in-time copy of Metrics, in declaration order.
type Stats struct {
	ShardedOps       int64
	FallbackOps      int64
	ReusedRows       int64
	ExchangedRows    int64
	BroadcastOps     int64
	SkewSplits       int64
	DenseProjections int64
}

// Reset zeroes every counter (nil-safe) — the per-query snapshot hook
// behind Engine.ResetStats.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.ShardedOps.Store(0)
	m.FallbackOps.Store(0)
	m.ReusedRows.Store(0)
	m.ExchangedRows.Store(0)
	m.BroadcastOps.Store(0)
	m.SkewSplits.Store(0)
	m.DenseProjections.Store(0)
}

// AddTo merges this Metrics' counts into dst (both nil-safe). The Engine
// runs traced evaluations against a private Metrics so the per-query
// delta is exact, then folds it into the shared engine-wide counters.
func (m *Metrics) AddTo(dst *Metrics) {
	if m == nil || dst == nil {
		return
	}
	dst.ShardedOps.Add(m.ShardedOps.Load())
	dst.FallbackOps.Add(m.FallbackOps.Load())
	dst.ReusedRows.Add(m.ReusedRows.Load())
	dst.ExchangedRows.Add(m.ExchangedRows.Load())
	dst.BroadcastOps.Add(m.BroadcastOps.Load())
	dst.SkewSplits.Add(m.SkewSplits.Load())
	dst.DenseProjections.Add(m.DenseProjections.Load())
}

// Snapshot copies the counters (nil-safe: a nil receiver reads all zeros).
func (m *Metrics) Snapshot() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		ShardedOps:       m.ShardedOps.Load(),
		FallbackOps:      m.FallbackOps.Load(),
		ReusedRows:       m.ReusedRows.Load(),
		ExchangedRows:    m.ExchangedRows.Load(),
		BroadcastOps:     m.BroadcastOps.Load(),
		SkewSplits:       m.SkewSplits.Load(),
		DenseProjections: m.DenseProjections.Load(),
	}
}

func (m *Metrics) addSharded() {
	if m != nil {
		m.ShardedOps.Add(1)
	}
}

func (m *Metrics) addFallback() {
	if m != nil {
		m.FallbackOps.Add(1)
	}
}

func (m *Metrics) addReused(rows int) {
	if m != nil {
		m.ReusedRows.Add(int64(rows))
	}
}

func (m *Metrics) addExchanged(rows int) {
	if m != nil {
		m.ExchangedRows.Add(int64(rows))
	}
}

func (m *Metrics) addBroadcast() {
	if m != nil {
		m.BroadcastOps.Add(1)
	}
}

func (m *Metrics) addDense() {
	if m != nil {
		m.DenseProjections.Add(1)
	}
}

func (m *Metrics) addSkewSplit() {
	if m != nil {
		m.SkewSplits.Add(1)
	}
}

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

// noteSkew records a hot-shard split: the shared routing counter always,
// plus — under tracing — a zero-duration skew event span attached to the
// current stage.
func noteSkew(opts *Options, name string, blocks int) {
	opts.metrics().addSkewSplit()
	if tr := opts.Tracer(); tr != nil {
		sp := tr.Op(trace.KindSkew, "skew split "+name)
		sp.SetNote(fmt.Sprintf("%d blocks", blocks))
		sp.End()
	}
}

// hotBlocks returns how many blocks a shard of the given size should split
// into: 1 (no split) unless the shard holds more than frac of its side's
// total, in which case it splits into blocks of about total*frac rows.
func hotBlocks(size, total int, frac float64) int {
	if total <= 0 || float64(size) <= frac*float64(total) {
		return 1
	}
	target := int(frac * float64(total))
	if target < 1 {
		target = 1
	}
	blocks := (size + target - 1) / target
	if blocks < 2 {
		return 1
	}
	return blocks
}

// sliceBlocks cuts r into `blocks` contiguous row-range views (O(arity)
// each, no copying).
func sliceBlocks(r *relation.Relation, blocks int) []*relation.Relation {
	n := r.Size()
	bs := (n + blocks - 1) / blocks
	out := make([]*relation.Relation, 0, blocks)
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		blk, err := r.Slice(r.Name, lo, hi)
		if err != nil {
			panic(fmt.Sprintf("shard: slicing %s [%d,%d): %v", r.Name, lo, hi, err))
		}
		out = append(out, blk)
	}
	return out
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
