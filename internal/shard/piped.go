package shard

// The operators: a Piped carries per-part column-batch pipelines
// (internal/batch), and the Piped operators extend those pipelines stage
// by stage — scan, semijoin, join probe, projection — so an intermediate
// result's peak residency is one batch per stage per part. The right-hand
// operands of joins and semijoins remain relations (they are probed via
// memoized indexes, which need the whole operand), so pipelines always
// flow on the left: exactly the shape of the executors, where the running
// intermediate meets one base binding after another.

import (
	"context"
	"fmt"
	"slices"

	"cqbound/internal/batch"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
)

// Piped is the currency of evaluation: per-part batch pipelines plus the
// column they are partitioned on (-1 when the parts have no known
// partitioning: row ranges, a single pipeline, or the parts of a dense
// projection), and a range per column holding every value the pipelines
// can emit. Only a hash projection's exchange partitions parts on a
// column, and later stages keep it. A Piped is consumed by extending or
// draining it exactly once — pipelines are not rewindable; materialize to
// re-iterate.
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

// Parts returns the number of per-part pipelines.
func (pd *Piped) Parts() int { return len(pd.parts) }

// PipedOf opens r as pipelines: P contiguous row ranges, part k scanning
// rows [k·n/P, (k+1)·n/P), when r has at least MinRows rows and the
// options' P is above 1, and one scan of r otherwise. The parts are
// unkeyed. Scans are zero-copy and pin governed storage only across
// individual batch reads. The column ranges are r's memoized ValueRanges.
func PipedOf(r *relation.Relation, opts *Options) *Piped {
	size, bm := opts.batchSize(), opts.batchMetrics()
	ranges := make([]relation.Range, r.Arity())
	for c := range ranges {
		ranges[c] = r.ValueRange(c)
	}
	n, p := r.Size(), opts.Count()
	if p < 2 || n < opts.MinRows {
		p = 1
	}
	parts := make([]batch.Iterator, p)
	for k := range parts {
		parts[k] = batch.ScanRange(r, k*n/p, (k+1)*n/p, size, bm)
	}
	return &Piped{attrs: r.Attrs, key: -1, parts: parts, ranges: ranges}
}

// joinRanges returns the column ranges of a join probe's output: pd's
// columns then next's, each joined pair narrowed to the values both sides
// hold, kept at the positions keep names.
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

// JoinPipedStream extends every pipeline of pd with a hash-join probe
// against next, the natural join: attributes shared by name join, and the
// output keeps all left columns (so pd's key survives) plus next's
// non-join columns. Every part probes next's one memoized index, built
// once on the first pull and then shared read-only; with no shared
// attribute every part joins the whole of next (a product).
func JoinPipedStream(ctx context.Context, opts *Options, pd *Piped, next *relation.Relation) (*Piped, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	size, bm := opts.batchSize(), opts.batchMetrics()
	lCols, rCols := relation.SharedColsNames(pd.attrs, next.Attrs)
	pairs := make([][2]int, len(lCols))
	for i := range lCols {
		pairs[i] = [2]int{lCols[i], rCols[i]}
	}
	attrs, keep := relation.NaturalJoinSchema(pd.attrs, next.Attrs, rCols)
	parts := make([]batch.Iterator, len(pd.parts))
	for k := range parts {
		parts[k] = batch.JoinProbe(pd.parts[k], next, pairs, size, bm, keep...)
	}
	countProbe(opts.metrics(), len(parts))
	return &Piped{attrs: attrs, key: pd.key, parts: parts, ranges: joinRanges(pd, next, pairs, keep)}, nil
}

// SemijoinPipedStream extends every pipeline with a semijoin filter against
// next on the attributes shared by name: every part probes next's one
// memoized index. A filter never changes pd's schema or its key. next
// empty with shared columns makes every part end without pulling its
// upstream.
func SemijoinPipedStream(ctx context.Context, opts *Options, pd *Piped, next *relation.Relation) (*Piped, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bm := opts.batchMetrics()
	lCols, rCols := relation.SharedColsNames(pd.attrs, next.Attrs)
	// A surviving row's joined values occur in next too.
	ranges := slices.Clone(pd.ranges)
	for i, c := range lCols {
		ranges[c] = ranges[c].Intersect(next.ValueRange(rCols[i]))
	}
	parts := make([]batch.Iterator, len(pd.parts))
	for k := range parts {
		parts[k] = batch.Semijoin(pd.parts[k], next, lCols, rCols, bm)
	}
	countProbe(opts.metrics(), len(parts))
	return &Piped{attrs: pd.attrs, key: pd.key, parts: parts, ranges: ranges}, nil
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
	// a projected tuple meet in one part's dedup set.
	ex := batch.NewExchange(pd.parts, pd.attrs, idx[0], len(pd.parts), size, opts.governTransient, exchangeCount(opts, pd.attrs[idx[0]], len(pd.parts)), bm)
	for k := range out.parts {
		out.parts[k] = batch.Project(ex.Part(k), idx, attrs, size, bm)
	}
	out.key = 0
	m.Add(shardedOps, 1)
	return out, nil
}

// MaterializePiped drains the pipelines into one relation: the parts
// drain in parallel and their rows are copied once, part 0's first
// (batch.MaterializeParts). transient registers the relation with the
// spill governor as an intermediate of the current evaluation; final
// outputs pass false and stay unmanaged.
func MaterializePiped(ctx context.Context, opts *Options, pd *Piped, name string, transient bool) (*relation.Relation, error) {
	return batch.MaterializeParts(ctx, pd.parts, name, opts.sinkGovern(transient), opts.batchMetrics())
}

// sinkGovern returns the callback a sink applies to the relation it
// builds: nil for a final output, otherwise registration as a transient.
func (o *Options) sinkGovern(transient bool) func(*relation.Relation) {
	if !transient {
		return nil
	}
	return func(r *relation.Relation) {
		// A transient output is opened again by PipedOf, which reads its
		// column ranges: scan them now, while the columns are resident,
		// rather than reload a parked relation for them.
		r.ValueRange(0)
		o.governTransient(r)
	}
}

// countOp counts an operator as sharded or single-part fallback by its
// part count.
func countOp(m *counter.Set, parts int) {
	if parts > 1 {
		m.Add(shardedOps, 1)
	} else {
		m.Add(fallbackOps, 1)
	}
}

// countProbe is countOp for a join or semijoin, whose parts, when there
// are several, each probe the right operand whole: a broadcast.
func countProbe(m *counter.Set, parts int) {
	countOp(m, parts)
	if parts > 1 {
		m.Add(broadcastOps, 1)
	}
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
