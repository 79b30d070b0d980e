package shard

// The operators: a Piped carries per-shard column-batch pipelines
// (internal/batch), and the Piped operators extend those pipelines stage
// by stage — scan, semijoin, join probe, projection — routing each stage
// down the ladder of doc.go (aligned reuse, broadcast, exchange, skew
// split), so an intermediate result's peak residency is one batch per
// stage per shard.
// The right-hand operands of joins and semijoins remain relations (they
// are probed via memoized hash indexes, which need the whole operand), so
// pipelines always flow on the left: exactly the shape of the executors,
// where the running intermediate meets one base binding after another.

import (
	"context"
	"fmt"
	"slices"

	"cqbound/internal/batch"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
)

// streamBroadcastRows is the size bound for broadcasting in joins: a
// pipeline whose partitioning is misaligned with the join key is NOT
// exchanged when the other side is at most this many rows — probing the
// small side whole per part costs about what a co-partitioned probe would,
// and the exchange's scatter copy over the pipeline is saved entirely. A
// pipeline's cardinality is unknown before it runs, so the bound is
// absolute: about four default batches.
const streamBroadcastRows = 4096

// Piped is the currency of evaluation: per-shard batch pipelines
// plus the partition key they are keyed on (-1 when the parts have no
// known partitioning: a single pipeline, or the parts of a dense
// projection that dropped the key), and a range per column holding every
// value the pipelines can emit. A Piped is consumed by extending or
// draining it exactly once — pipelines are not rewindable; buffer through
// batch.Buffered or materialize to re-iterate.
type Piped struct {
	attrs  []string
	key    int
	parts  []batch.Iterator
	ranges []relation.Range
	// dedup names a projection's dedup set ("dense <bits>" or "hash") for
	// the span TracePiped attaches; empty for other operators.
	dedup string
}

// Attrs returns the schema every part's batches carry.
func (pd *Piped) Attrs() []string { return pd.attrs }

// Parts returns the number of per-shard pipelines.
func (pd *Piped) Parts() int { return len(pd.parts) }

// PipedOf opens a stream as pipelines: one scan per shard when the stream
// carries a partitioned view at the options' count (keeping its key), one
// flat scan otherwise. Scans are zero-copy and pin governed storage only
// across individual batch reads. The column ranges are the stream's
// memoized ValueRanges.
func PipedOf(st Stream, opts *Options) *Piped {
	size, bm := opts.batchSize(), opts.batchMetrics()
	ranges := streamRanges(st)
	if sh := st.Sharded(); sh != nil && sh.P() == opts.Count() && sh.P() > 1 {
		parts := make([]batch.Iterator, sh.P())
		for k := range parts {
			parts[k] = batch.Scan(sh.Shard(k), size, bm)
		}
		return &Piped{attrs: sh.Attrs(), key: sh.Key(), parts: parts, ranges: ranges}
	}
	return &Piped{attrs: st.Attrs(), key: -1, parts: []batch.Iterator{batch.Scan(st.Rel(), size, bm)}, ranges: ranges}
}

// streamRanges returns the value range of every column of st: the flat
// relation's when it has one at hand, else the union of its shards'.
func streamRanges(st Stream) []relation.Range {
	ranges := make([]relation.Range, len(st.Attrs()))
	sh := st.Sharded()
	if sh == nil || sh.eager != nil {
		r := st.Rel()
		for c := range ranges {
			ranges[c] = r.ValueRange(c)
		}
		return ranges
	}
	for c := range ranges {
		ranges[c] = relation.EmptyRange
		for k := 0; k < sh.P(); k++ {
			ranges[c] = ranges[c].Union(sh.Shard(k).ValueRange(c))
		}
	}
	return ranges
}

// joinRanges returns the column ranges of a raw join probe's output — pd's
// columns then next's — with each joined pair narrowed to the values both
// sides hold, kept at the positions keep names (nil keeps all).
func joinRanges(pd *Piped, next *relation.Relation, pairs [][2]int, keep []int) []relation.Range {
	raw := make([]relation.Range, 0, len(pd.ranges)+next.Arity())
	raw = append(raw, pd.ranges...)
	for c := 0; c < next.Arity(); c++ {
		raw = append(raw, next.ValueRange(c))
	}
	for _, pr := range pairs {
		l, r := pr[0], len(pd.ranges)+pr[1]
		raw[l] = raw[l].Intersect(raw[r])
		raw[r] = raw[l]
	}
	if keep == nil {
		return raw
	}
	return keptRanges(raw, keep)
}

// keptRanges returns ranges at the positions idx names.
func keptRanges(ranges []relation.Range, idx []int) []relation.Range {
	out := make([]relation.Range, len(idx))
	for i, c := range idx {
		out[i] = ranges[c]
	}
	return out
}

// tapIter counts rows flowing through a pipeline stage without touching
// them — the ReusedRows accounting: rows that reach a sharded probe
// already partitioned on the key never pass an exchange, so they are
// counted as they flow.
type tapIter struct {
	src batch.Iterator
	f   func(int)
}

func (t *tapIter) Attrs() []string { return t.src.Attrs() }

func (t *tapIter) Next(ctx context.Context) (*batch.Batch, error) {
	b, err := t.src.Next(ctx)
	if b != nil {
		t.f(b.N)
	}
	return b, err
}

// splitProbe is the hot-shard block split, for skew on the probe side:
// when one shard of the probe relation holds more than the skew fraction
// of its total, the part's stream is buffered into governed chunks while
// its first block chain consumes it, the shard is sliced into row blocks
// of about frac·total rows, and every further block gets its own chain
// over a replay of the buffer — batch.Fan merges them, so a serialized
// probe against the hot shard becomes len(blocks) parallel probes. Only
// usable for stages that are stateless per row (the join probe); a
// projection's dedup set would leak duplicates across blocks.
func splitProbe(src batch.Iterator, rsh *relation.Relation, blocks int, attrs []string, chain func(batch.Iterator, *relation.Relation) batch.Iterator, opts *Options) batch.Iterator {
	buf := batch.NewBuffered(src, rsh.Name+"_skew", opts.batchSize(), opts.governTransient, opts.batchMetrics())
	mks := make([]func() batch.Iterator, 0, blocks)
	for i, b := range sliceBlocks(rsh, blocks) {
		b := b
		in := batch.Iterator(buf)
		if i > 0 {
			in = buf.Rewind()
		}
		mks = append(mks, func() batch.Iterator { return chain(in, b) })
	}
	return batch.Fan(mks, attrs)
}

// partitionSide partitions a probe-side relation. Shards register with the
// governor either way; a transient operand's shards are additionally
// tracked in the evaluation scope, so a fresh intermediate's partitioning
// is discarded with the intermediate when the query finishes, while a base
// relation's memoized shards persist for reuse across evaluations.
// (Double-tracking a memoized shard is safe: buffer discard is idempotent.)
func partitionSide(r *relation.Relation, key, p int, transient bool, opts *Options) *Sharded {
	sh := partition(r, key, p, opts.spill())
	if transient && opts != nil && opts.Scope != nil && opts.spill() != nil {
		for k := 0; k < sh.P(); k++ {
			if b := sh.Shard(k).Buffer(); b != nil {
				opts.Scope.Track(b)
			}
		}
	}
	return sh
}

// probeChain builds one part's probe stage against its shard of the probe
// relation, splitting a hot shard into parallel block chains when the skew
// fraction says so. total is the probe relation's full size.
func probeChain(src batch.Iterator, rsh *relation.Relation, total int, attrs []string, chain func(batch.Iterator, *relation.Relation) batch.Iterator, opts *Options) batch.Iterator {
	if frac := opts.skewFraction(); frac > 0 {
		if blocks := hotBlocks(rsh.Size(), total, frac); blocks > 1 {
			noteSkew(opts, rsh.Name, blocks)
			return splitProbe(src, rsh, blocks, attrs, chain, opts)
		}
	}
	return chain(src, rsh)
}

// JoinPipedStream extends every pipeline of pd with a hash-join probe
// against next, the natural join: attributes shared by name join, the
// output keeps all left columns (so pd's key survives unless the routing
// replaces it) plus next's non-join columns. Routing is the ladder — reuse
// an aligned partitioning (counting the rows that flow as reused), probe a
// small next whole per part, otherwise exchange the pipeline onto a shared
// column (batch.Exchange: incremental governor registration). Skew handling
// is two-sided: a hot shard of the partitioned next splits into row blocks
// probed by parallel chains, and a hot exchange output part grows a second
// probe chain via batch.Grow while the exchange still scatters. next is
// partitioned through its memoized Partition, so repeated evaluations share
// the build.
func JoinPipedStream(ctx context.Context, opts *Options, pd *Piped, next *relation.Relation, transient bool) (*Piped, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := opts.metrics()
	size, bm := opts.batchSize(), opts.batchMetrics()
	lCols, rCols := relation.SharedColsNames(pd.attrs, next.Attrs)
	if len(lCols) == 0 {
		// Cross product: every part joins the whole of next; the raw
		// all-left-then-all-right layout IS the output schema (nothing is
		// dropped), and pd's key survives at its position.
		attrs := append(append(make([]string, 0, len(pd.attrs)+next.Arity()), pd.attrs...), next.Attrs...)
		parts := make([]batch.Iterator, len(pd.parts))
		for k := range parts {
			parts[k] = batch.JoinProbe(pd.parts[k], next, nil, size, bm)
		}
		countOp(m, len(parts))
		return &Piped{attrs: attrs, key: pd.key, parts: parts, ranges: joinRanges(pd, next, nil, nil)}, nil
	}
	pairs := make([][2]int, len(lCols))
	for i := range lCols {
		pairs[i] = [2]int{lCols[i], rCols[i]}
	}
	attrs, keep := relation.NaturalJoinSchema(pd.attrs, next.Attrs, rCols)
	ranges := joinRanges(pd, next, pairs, keep)
	p := opts.Count()

	chain := func(src batch.Iterator, rShard *relation.Relation) batch.Iterator {
		return batch.Keep(batch.JoinProbe(src, rShard, pairs, size, bm), keep, attrs)
	}

	// Aligned: pd is already partitioned on a join column at count p, so
	// next's matching shards probe part for part; rows flow unexchanged.
	if pick := pipedAligned(pd, lCols, p); pick >= 0 {
		rSh := partitionSide(next, rCols[pick], p, transient, opts)
		parts := make([]batch.Iterator, p)
		for k := range parts {
			src := batch.Iterator(&tapIter{src: pd.parts[k], f: adder(m, reusedRows)})
			parts[k] = probeChain(src, rSh.Shard(k), next.Size(), attrs, chain, opts)
		}
		m.Add(shardedOps, 1)
		// Left columns keep their positions through the join projection.
		return &Piped{attrs: attrs, key: lCols[pick], parts: parts, ranges: ranges}, nil
	}
	// Sharding off, or a flat pipeline meeting an input below MinRows:
	// probe next whole in the single part.
	if p == 1 || (len(pd.parts) == 1 && !opts.active(next.Size())) {
		it := chain(pd.parts[0], next)
		countOp(m, 1)
		return &Piped{attrs: attrs, key: -1, parts: []batch.Iterator{it}, ranges: ranges}, nil
	}
	// Misaligned multi-part pipeline: broadcast a small (or below-MinRows)
	// next against the existing parts instead of scattering the pipeline.
	// The parts stay partitioned on pd's (non-join) key, which survives.
	if len(pd.parts) > 1 && (next.Size() <= streamBroadcastRows || !opts.active(next.Size())) {
		parts := make([]batch.Iterator, len(pd.parts))
		for k := range parts {
			src := batch.Iterator(&tapIter{src: pd.parts[k], f: adder(m, reusedRows)})
			parts[k] = chain(src, next)
		}
		m.Add(shardedOps, 1)
		m.Add(broadcastOps, 1)
		return &Piped{attrs: attrs, key: pd.key, parts: parts, ranges: ranges}, nil
	}
	// Exchange the pipeline onto the shared column where next has the most
	// distinct values (the balanced choice; the pipeline side has no
	// statistics before it runs). Output shards seal into governed chunks
	// as they fill. Skew: a hot shard of next splits into block chains up
	// front; otherwise a part of the exchange flagged hot mid-stream grows
	// a second probe chain.
	pick := 0
	bestScore := -1
	for i := range rCols {
		if d := next.DistinctCount(rCols[i]); d > bestScore {
			pick, bestScore = i, d
		}
	}
	rSh := partitionSide(next, rCols[pick], p, transient, opts)
	frac := opts.skewFraction()
	ex := batch.NewExchange(pd.parts, pd.attrs, lCols[pick], p, size, frac, opts.governTransient, exchangeCount(opts, pd.attrs[lCols[pick]], p), bm)
	parts := make([]batch.Iterator, p)
	for k := range parts {
		k := k
		rsh := rSh.Shard(k)
		if blocks := hotBlocks(rsh.Size(), next.Size(), frac); frac > 0 && blocks > 1 {
			noteSkew(opts, rsh.Name, blocks)
			parts[k] = splitProbe(ex.Part(k), rsh, blocks, attrs, chain, opts)
			continue
		}
		if frac > 0 {
			mk := func() batch.Iterator { return chain(ex.Part(k), rsh) }
			parts[k] = batch.Grow(mk, attrs, func() bool { return ex.Hot(k) }, func() { noteSkew(opts, rsh.Name, 2) })
		} else {
			parts[k] = chain(ex.Part(k), rsh)
		}
	}
	m.Add(shardedOps, 1)
	return &Piped{attrs: attrs, key: lCols[pick], parts: parts, ranges: ranges}, nil
}

// SemijoinPipedStream extends every pipeline with a semijoin filter against
// next on the attributes shared by name. A filter never changes pd's
// schema, so the routing only decides where the probes happen: an aligned
// multi-part pipeline probes next's matching shards (counting its rows as
// reused), a misaligned one probes next whole per part (the index is
// memoized on next, so the broadcast builds it once), and a flat pipeline
// meeting an above-MinRows next is exchanged onto a shared column first so
// the filter — and every stage after it — runs partition-parallel. next
// empty with shared columns makes every part end without pulling its
// upstream.
func SemijoinPipedStream(ctx context.Context, opts *Options, pd *Piped, next *relation.Relation, transient bool) (*Piped, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := opts.metrics()
	size, bm := opts.batchSize(), opts.batchMetrics()
	lCols, rCols := relation.SharedColsNames(pd.attrs, next.Attrs)
	// A surviving row's joined values occur in next too.
	ranges := slices.Clone(pd.ranges)
	for i, c := range lCols {
		ranges[c] = ranges[c].Intersect(next.ValueRange(rCols[i]))
	}
	p := opts.Count()
	// Sharding off, no column to route on, or a flat pipeline meeting an
	// input below MinRows: filter the parts as they are.
	if len(lCols) == 0 || p == 1 || (len(pd.parts) == 1 && !opts.active(next.Size())) {
		parts := make([]batch.Iterator, len(pd.parts))
		for k := range parts {
			parts[k] = batch.Semijoin(pd.parts[k], next, lCols, rCols, bm)
		}
		countOp(m, len(parts))
		return &Piped{attrs: pd.attrs, key: pd.key, parts: parts, ranges: ranges}, nil
	}
	// Aligned: each part probes only next's matching shard.
	if pick := pipedAligned(pd, lCols, p); pick >= 0 {
		rSh := partitionSide(next, rCols[pick], p, transient, opts)
		parts := make([]batch.Iterator, p)
		for k := range parts {
			src := batch.Iterator(&tapIter{src: pd.parts[k], f: adder(m, reusedRows)})
			parts[k] = batch.Semijoin(src, rSh.Shard(k), lCols, rCols, bm)
		}
		m.Add(shardedOps, 1)
		return &Piped{attrs: pd.attrs, key: pd.key, parts: parts, ranges: ranges}, nil
	}
	// Misaligned multi-part pipeline: probe next whole per part — the
	// filter keeps pd's partitioning, and next's memoized index is shared.
	if len(pd.parts) > 1 {
		parts := make([]batch.Iterator, len(pd.parts))
		for k := range parts {
			src := batch.Iterator(&tapIter{src: pd.parts[k], f: adder(m, reusedRows)})
			parts[k] = batch.Semijoin(src, next, lCols, rCols, bm)
		}
		m.Add(shardedOps, 1)
		m.Add(broadcastOps, 1)
		return &Piped{attrs: pd.attrs, key: pd.key, parts: parts, ranges: ranges}, nil
	}
	// Flat pipeline, sharding on: exchange onto the shared column where
	// next has the most distinct values, then filter shard against shard —
	// the result stays partitioned for the stages downstream.
	pick := 0
	bestScore := -1
	for i := range rCols {
		if d := next.DistinctCount(rCols[i]); d > bestScore {
			pick, bestScore = i, d
		}
	}
	rSh := partitionSide(next, rCols[pick], p, transient, opts)
	ex := batch.NewExchange(pd.parts, pd.attrs, lCols[pick], p, size, 0, opts.governTransient, exchangeCount(opts, pd.attrs[lCols[pick]], p), bm)
	parts := make([]batch.Iterator, p)
	for k := range parts {
		parts[k] = batch.Semijoin(ex.Part(k), rSh.Shard(k), lCols, rCols, bm)
	}
	m.Add(shardedOps, 1)
	return &Piped{attrs: pd.attrs, key: lCols[pick], parts: parts, ranges: ranges}, nil
}

// ProjectPiped extends the pipelines with the duplicate-eliminating
// projection onto idx (positions may repeat, as in relation.ProjectIdx). A
// projection that keeps every column dedups nothing (batch.Project runs it
// as a stateless Keep) and always keeps the key. Otherwise the dedup set
// is chosen from the data:
//
//   - Dense: when the kept columns' value ranges multiply to at most the
//     batch package's limit (2^24 combinations), rows dedup in bitmaps
//     (batch.DenseSet) and no exchange runs. A piped whose key survives
//     (or a single part) projects part by part, each part into a bitmap
//     of its own, and keeps the key. Otherwise every part marks a private
//     bitmap, the bitmaps are merged, and each output part decodes a
//     slice of the merged one (batch.ProjectDenseParts): the output is
//     unkeyed, and the same on every run.
//   - Hash: a multi-part piped whose key survives projects part by part
//     into per-part hash sets (duplicates agree on every kept column
//     including the key, so they share a part); otherwise the pipeline is
//     first exchanged onto the first kept column, which makes per-part
//     dedup exact.
func ProjectPiped(ctx context.Context, opts *Options, pd *Piped, idx []int) (*Piped, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := opts.metrics()
	size, bm := opts.batchSize(), opts.batchMetrics()
	// Repeated positions get distinct names: the sink builds a relation,
	// and a relation's attributes must be unique.
	attrs, err := relation.ProjectedAttrs(pd.attrs, idx)
	if err != nil {
		return nil, fmt.Errorf("shard: projecting %v: %w", pd.attrs, err)
	}
	out := &Piped{attrs: attrs, key: indexOfKept(idx, pd.key), parts: make([]batch.Iterator, len(pd.parts)), ranges: keptRanges(pd.ranges, idx)}
	covering := batch.Covers(idx, len(pd.attrs))
	if !covering {
		if set := batch.NewDenseSet(pd.ranges, idx); set != nil {
			if len(pd.parts) == 1 || out.key >= 0 {
				// Duplicates share a part: each part dedups in a set of its own.
				for k := range out.parts {
					if k > 0 {
						set = batch.NewDenseSet(pd.ranges, idx)
					}
					out.parts[k] = batch.ProjectDense(pd.parts[k], idx, attrs, set, size, bm)
				}
			} else {
				out.parts = batch.ProjectDenseParts(pd.parts, idx, attrs, set, size, bm)
			}
			out.dedup = fmt.Sprintf("dense %d", set.Bits())
			m.Add(denseProjections, 1)
			countOp(m, len(out.parts))
			return out, nil
		}
		out.dedup = "hash"
	}
	if len(pd.parts) == 1 || out.key >= 0 || covering {
		for k := range out.parts {
			out.parts[k] = batch.Project(pd.parts[k], idx, attrs, size, bm)
		}
		countOp(m, len(out.parts))
		return out, nil
	}
	// Key dropped: route rows by the first kept column so all duplicates of
	// a projected tuple meet in one part's dedup set. No Grow here — the
	// projection is stateful (its dedup set), so splitting one part across
	// two chains would let duplicates slip through.
	ex := batch.NewExchange(pd.parts, pd.attrs, idx[0], len(pd.parts), size, 0, opts.governTransient, exchangeCount(opts, pd.attrs[idx[0]], len(pd.parts)), bm)
	for k := range out.parts {
		out.parts[k] = batch.Project(ex.Part(k), idx, attrs, size, bm)
	}
	out.key = 0
	m.Add(shardedOps, 1)
	return out, nil
}

// MaterializePiped drains the pipelines into a Stream: a single-part piped
// becomes a flat relation, a multi-part piped one relation per part (built
// in parallel) assembled as a view on the piped's key — partitioned when
// the piped is keyed, unkeyed otherwise — which PipedOf picks up again.
// transient registers the built relations with the spill governor as
// intermediates of the current evaluation; final outputs pass false and
// stay unmanaged.
func MaterializePiped(ctx context.Context, opts *Options, pd *Piped, name string, transient bool) (Stream, error) {
	bm := opts.batchMetrics()
	var govern func(*relation.Relation)
	if transient {
		govern = func(r *relation.Relation) {
			// A transient output is opened again by PipedOf, which reads
			// its column ranges: scan them now, while the columns are
			// resident, rather than reload a parked relation for them.
			r.ValueRange(0)
			opts.governTransient(r)
		}
	}
	if len(pd.parts) == 1 {
		r, err := batch.Materialize(ctx, pd.parts[0], name, govern, bm)
		if err != nil {
			return Stream{}, err
		}
		return StreamOf(r), nil
	}
	outs := make([]*relation.Relation, len(pd.parts))
	if err := pool.Run(ctx, 0, len(pd.parts), func(k int) error {
		r, err := batch.Materialize(ctx, pd.parts[k], name, govern, bm)
		if err == nil {
			outs[k] = r
		}
		return err
	}); err != nil {
		return Stream{}, err
	}
	return ShardedStream(FromParts(name, pd.attrs, pd.key, outs)), nil
}

// pipedAligned returns the index into cols of pd's partition key when pd is
// partitioned at count p on one of the join columns, or -1.
func pipedAligned(pd *Piped, cols []int, p int) int {
	if pd.key < 0 || len(pd.parts) != p {
		return -1
	}
	for i, c := range cols {
		if c == pd.key {
			return i
		}
	}
	return -1
}

// countOp counts an operator as sharded or single-shard fallback by its
// part count.
func countOp(m *counter.Set, parts int) {
	if parts > 1 {
		m.Add(shardedOps, 1)
	} else {
		m.Add(fallbackOps, 1)
	}
}

// adder returns a row callback that adds to counter c of m.
func adder(m *counter.Set, c counter.ID) func(int) {
	return func(n int) { m.Add(c, int64(n)) }
}
