package relation

// Column value ranges: the [min, max] interval of the IDs a column holds.
// A projection whose kept columns' ranges multiply to a small number of
// combinations can deduplicate in a bitmap indexed by the combination
// instead of a hash table (internal/batch.DenseSet). The ranges come from
// the data, never from a dictionary's size: an Engine may intern into its
// own Dict, and the process-wide default's length says nothing about the
// IDs a relation of another dictionary holds.

// Range is the closed interval [Lo, Hi] of Values. Lo > Hi is the empty
// range (EmptyRange), the range of a column with no rows.
type Range struct{ Lo, Hi Value }

// EmptyRange contains no value.
var EmptyRange = Range{Lo: 1, Hi: 0}

// Empty reports whether the range contains no value.
func (g Range) Empty() bool { return g.Lo > g.Hi }

// Width returns the number of values in the range (0 when empty).
func (g Range) Width() uint64 {
	if g.Empty() {
		return 0
	}
	return uint64(g.Hi-g.Lo) + 1
}

// Intersect returns the values in both ranges: the range of a join column,
// whose every value occurs on both sides.
func (g Range) Intersect(h Range) Range {
	out := Range{Lo: max(g.Lo, h.Lo), Hi: min(g.Hi, h.Hi)}
	if out.Empty() {
		return EmptyRange
	}
	return out
}

// columnRanges is the memoized value behind ValueRange: one Range per
// column.
type columnRanges []Range

// ValueRange returns the range of the values column c holds: [min, max]
// over its rows, EmptyRange for an empty relation or an out-of-range
// column. The ranges of all columns are computed together in one linear
// scan and memoized in the size-keyed memo table (so Clone/Rename views
// share their parent's).
func (r *Relation) ValueRange(c int) Range {
	if c < 0 || c >= len(r.Attrs) {
		return EmptyRange
	}
	return r.Memo("ranges", func() any {
		r.Pin()
		defer r.Unpin()
		out := make(columnRanges, len(r.Attrs))
		for c := range out {
			out[c] = rangeOf(r.Column(c))
		}
		return out
	}).(columnRanges)[c]
}

// rangeOf returns the range of the values in col.
func rangeOf(col []Value) Range {
	if len(col) == 0 {
		return EmptyRange
	}
	lo, hi := col[0], col[0]
	for _, v := range col {
		lo, hi = min(lo, v), max(hi, v)
	}
	return Range{Lo: lo, Hi: hi}
}
