package batch

// The dense dedup set of a projection over a small value domain.

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"cqbound/internal/metrics/counter"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
)

// DenseSet is a projection's dedup set as a bitmap with one bit per
// combination of the kept columns' values: a projected row with values
// v₁…vₖ in columns whose ranges start at lo₁…loₖ is bit Σ (vᵢ − loᵢ)·strideᵢ,
// where strideᵢ is the product of the later columns' range widths. Marking
// a row costs a few multiplies and one word update, with no hashing,
// probing or growth — the KeyTable path pays all three — and the set's
// size is fixed before the first row arrives.
//
// A set belongs to one goroutine. Several pipelines deduplicating
// together (ProjectDenseParts) each mark a private copy, merged once they
// are drained: goroutines on different cores writing one bitmap would
// contend for its cache lines on every row, at a cost that depends on
// where the scheduler puts them.
type DenseSet struct {
	pos    []int            // distinct input positions the bit index reads
	lo     []relation.Value // each position's range start
	width  []uint64         // each position's range width
	stride []uint64
	words  []uint64
	bits   uint64
}

// NewDenseSet returns the dense dedup set for projecting rows onto idx,
// given ranges, one per input column, that contain every value the rows
// hold — or nil when the kept columns' ranges multiply to more than
// denseMaxBits combinations. Repeated positions in idx count once.
func NewDenseSet(ranges []relation.Range, idx []int) *DenseSet {
	s := &DenseSet{}
	for _, c := range idx {
		if c < 0 || c >= len(ranges) {
			return nil
		}
		if !slices.Contains(s.pos, c) {
			s.pos = append(s.pos, c)
		}
	}
	s.lo = make([]relation.Value, len(s.pos))
	s.width = make([]uint64, len(s.pos))
	s.stride = make([]uint64, len(s.pos))
	s.bits = 1
	for i := len(s.pos) - 1; i >= 0; i-- {
		g := ranges[s.pos[i]]
		s.lo[i], s.width[i], s.stride[i] = g.Lo, g.Width(), s.bits
		// An empty range means no row can arrive; the set stays empty and
		// any row that does is out of range.
		if s.bits *= s.width[i]; s.bits > denseMaxBits {
			return nil
		}
	}
	s.words = make([]uint64, (s.bits+63)/64)
	return s
}

// Bits returns the number of combinations the set has a bit for.
func (s *DenseSet) Bits() uint64 { return s.bits }

// empty returns a set with s's layout and no bit set.
func (s *DenseSet) empty() *DenseSet {
	c := *s
	c.words = make([]uint64, len(s.words))
	return &c
}

// insert marks the row at (cols, row) and reports whether it was new. A
// value outside its column's range is an error: it has no bit, and
// setting some other bit instead would silently drop a distinct row.
func (s *DenseSet) insert(cols [][]relation.Value, row int) (bool, error) {
	var bit uint64
	for i, c := range s.pos {
		v := cols[c][row]
		// Values are unsigned, so one compare catches both sides: a value
		// below lo wraps to a distance far above any dense width.
		d := uint64(v - s.lo[i])
		if d >= s.width[i] {
			return false, fmt.Errorf("batch: dense projection: value %d in column %d is outside its range [%d, %d]", v, c, s.lo[i], uint64(s.lo[i])+s.width[i]-1)
		}
		bit += d * s.stride[i]
	}
	w, mask := &s.words[bit>>6], uint64(1)<<(bit&63)
	if *w&mask != 0 {
		return false, nil
	}
	*w |= mask
	return true, nil
}

// mark drains in into the set.
func (s *DenseSet) mark(ctx context.Context, in Iterator) error {
	for {
		b, err := in.Next(ctx)
		if err != nil || b == nil {
			return err
		}
		for row := 0; row < b.N; row++ {
			if _, err := s.insert(b.Cols, row); err != nil {
				return err
			}
		}
	}
}

// decode writes bit's value at every position into vals, in pos order:
// the inverse of insert's bit index.
func (s *DenseSet) decode(bit uint64, vals []relation.Value) {
	last := len(s.pos) - 1
	if last < 0 {
		return // a projection onto no column: its one row has no value
	}
	for i := 0; i < last; i++ {
		q := bit / s.stride[i]
		bit -= q * s.stride[i]
		vals[i] = s.lo[i] + relation.Value(q)
	}
	vals[last] = s.lo[last] + relation.Value(bit) // stride 1
}

// ProjectDenseParts projects several pipelines onto idx as one dedup set:
// the parts of a pipeline partitioned on a column the projection drops,
// whose duplicates may sit in different parts. Each input marks its rows
// in a private copy of set (the first input in set itself), the copies are
// OR-ed into set once every input is drained, and output part k decodes
// the k-th slice of set's words into rows. No row crosses an exchange and
// no two goroutines write one bitmap.
//
// The projection is a pipeline breaker: the first Next on any output part
// drains every input, in parallel on the shared pool, and the other parts
// wait for it. Its output is the same on every run — rows in bit order,
// cut into parts at fixed word boundaries — whatever the timing of the
// inputs. A row holding a value outside set's ranges fails every part.
func ProjectDenseParts(ins []Iterator, idx []int, attrs []string, set *DenseSet, size int, m *counter.Set) []Iterator {
	src := &denseSource{ins: ins, set: set}
	// Output column j holds the value at position at[j] of set.pos.
	at := make([]int, len(idx))
	for j, c := range idx {
		at[j] = slices.Index(set.pos, c)
	}
	outs := make([]Iterator, len(ins))
	nw := len(set.words)
	for k := range outs {
		outs[k] = &denseDecodeIter{src: src, at: at, attrs: attrs, size: sizeOr(size), m: m,
			w: k * nw / len(outs), end: (k + 1) * nw / len(outs)}
	}
	return outs
}

// denseSource is the drain ProjectDenseParts' output parts share.
type denseSource struct {
	ins  []Iterator
	set  *DenseSet
	once sync.Once
	err  error
}

// fill drains every input into the merged set, once; later calls wait for
// the first and return its error.
func (d *denseSource) fill(ctx context.Context) error {
	d.once.Do(func() {
		sets := make([]*DenseSet, len(d.ins))
		sets[0] = d.set
		for k := 1; k < len(sets); k++ {
			sets[k] = d.set.empty()
		}
		d.err = pool.Run(ctx, 0, len(d.ins), func(k int) error { return sets[k].mark(ctx, d.ins[k]) })
		for _, s := range sets[1:] {
			for i, w := range s.words {
				d.set.words[i] |= w
			}
		}
	})
	return d.err
}

// denseDecodeIter emits the rows of the set bits in words [w, end) of a
// filled denseSource.
type denseDecodeIter struct {
	src    *denseSource
	at     []int
	attrs  []string
	size   int
	m      *counter.Set
	w, end int    // next word to load, and the end of the slice
	cur    uint64 // bits of word w-1 not yet emitted
	base   uint64 // bit index of word w-1's bit 0
	vals   []relation.Value
	dst    [][]relation.Value
	out    Batch
}

func (d *denseDecodeIter) Attrs() []string { return d.attrs }

func (d *denseDecodeIter) Next(ctx context.Context) (*Batch, error) {
	if err := d.src.fill(ctx); err != nil {
		return nil, err
	}
	set := d.src.set
	if d.dst == nil {
		d.dst = columns(len(d.at), d.size)
		d.out.Cols = make([][]relation.Value, len(d.at))
		d.vals = make([]relation.Value, len(set.pos))
	}
	n := 0
	for n < d.size {
		for d.cur == 0 && d.w < d.end {
			d.cur, d.base = set.words[d.w], uint64(d.w)<<6
			d.w++
		}
		if d.cur == 0 {
			break
		}
		set.decode(d.base+uint64(bits.TrailingZeros64(d.cur)), d.vals)
		d.cur &= d.cur - 1
		for j, i := range d.at {
			d.dst[j][n] = d.vals[i]
		}
		n++
	}
	if n == 0 {
		return nil, nil
	}
	for j := range d.dst {
		d.out.Cols[j] = d.dst[j][:n]
	}
	d.out.N = n
	emitted(d.m, n, len(d.at))
	return &d.out, nil
}
